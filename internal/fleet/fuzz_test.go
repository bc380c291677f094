package fleet

import "testing"

// FuzzParseShard: ParseShard never panics on an arbitrary -shard value;
// "" is the unsharded zero value and any other accepted spec is an
// enabled shard with 0 <= Index < Count; and every accepted shard
// round-trips through String. The checked-in corpus
// (testdata/fuzz/FuzzParseShard) holds the empty spec, 0/1, a
// plus-signed index, a zero count and an overflowing count.
func FuzzParseShard(f *testing.F) {
	for _, seed := range []string{"1/2", "7/8", "2/2", "-1/2", "1", "a/b", "1/2/3", " 0/1", "0x1/2"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseShard(in)
		if err != nil {
			return
		}
		if in == "" {
			if s != (Shard{}) {
				t.Fatalf(`ParseShard("") = %+v, want the zero value`, s)
			}
		} else if !s.Enabled() || s.Index < 0 || s.Index >= s.Count {
			t.Fatalf("ParseShard(%q) accepted %+v, want 0 <= Index < Count", in, s)
		}
		back, err := ParseShard(s.String())
		if err != nil || back != s {
			t.Fatalf("ParseShard(%q) = %+v does not round-trip: %q parses to %+v, %v", in, s, s.String(), back, err)
		}
	})
}
