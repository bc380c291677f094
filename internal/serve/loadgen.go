package serve

import (
	"net"
	"net/http"

	"repro/internal/digest"
)

// ServedByHeader is the response header a fleet router stamps with the
// name of the replica that answered a proxied request, which is how
// routed traffic distributions are audited. It lives in this package
// (not internal/fleet) so clients need no fleet import; the router
// references this constant.
const ServedByHeader = "X-Served-By"

// SparseInputs generates n deterministic inputs of the given size with a
// controlled zero fraction: element j of input i is zero iff the hashed
// fraction Mix64(Mix64(seed+i)^j) / 2^64 falls below sparsity, otherwise
// a positive value in (0, 1]. Pure function of its arguments — the same
// (n, size, sparsity, seed) always yields byte-identical inputs, so
// benchmark legs and cached experiments replay exactly.
func SparseInputs(n, size int, sparsity float64, seed uint64) [][]float32 {
	xs := make([][]float32, n)
	for i := range xs {
		base := digest.Mix64(seed + uint64(i))
		x := make([]float32, size)
		for j := range x {
			h := digest.Mix64(base ^ uint64(j))
			if float64(h)/float64(1<<63)/2 < sparsity {
				continue
			}
			// Positive and bounded away from the quantization step so no
			// nonzero element rounds to zero after activation quantization.
			x[j] = 0.5 + 0.5*float32(h>>40)/float32(1<<24)
		}
		xs[i] = x
	}
	return xs
}

// ListenLocal serves an HTTP API (a Registry's Handler or a fleet
// router's) on an ephemeral loopback listener, returning the
// http.Server (Close stops it) and the base URL. The repository
// benchmark, the tests and in-process walkthroughs share it.
func ListenLocal(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return hs, "http://" + ln.Addr().String(), nil
}
