package sckernel

// haveAVX2 reports, once per process, whether this CPU runs AVX2 and the
// OS saves the YMM registers across context switches: CPUID leaf 1
// (OSXSAVE and AVX), XCR0 (SSE and AVX state enabled) and CPUID leaf 7
// (AVX2).
var haveAVX2 = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}()

// cpuid executes CPUID with EAX=eaxArg and ECX=ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (call only when CPUID
// reports OSXSAVE).
func xgetbv() (eax, edx uint32)

// tile16x2 counts one psum chunk of n lanes for a 16-row group against
// two DKVs (AVX2). x holds the group's lanes as 16 uint16 each, x<<(16-B);
// w0 and w1 point at each DKV's first lane of the chunk. For DKV h it
// stores the 16 rows' count totals at sums[32h:] and their negative
// parts at sums[32h+16:]: VPMULHUW of a lane by the broadcast weight
// magnitude is the lane's count floor(x*w/2^B), and the broadcast sign
// mask selects the negative part.
//
//go:noescape
func tile16x2(x *uint64, w0, w1 *lane, n int, sums *[64]uint16)
