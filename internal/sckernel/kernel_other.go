//go:build !amd64

package sckernel

// haveAVX2 is false off amd64: DotTile always runs the portable kernel.
const haveAVX2 = false

// tile16x2 exists only on amd64; DotTile never calls it here.
func tile16x2(x *uint64, w0, w1 *lane, n int, sums *[64]uint16) {
	panic("sckernel: tile16x2 without AVX2")
}
