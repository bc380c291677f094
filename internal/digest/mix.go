package digest

// Mix64 is the splitmix64 finalizer: a fixed, well-diffusing 64-bit
// hash (every input bit moves every output bit). It is the one
// non-cryptographic mixer in the tree: trace IDs, fleet ring placement,
// synthetic inputs, retry jitter, HTTP chaos schedules and the keyed
// ADC noise all reduce through it, so each is a pure, documented
// function of its inputs.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
