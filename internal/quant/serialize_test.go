package quant

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// artifactNet builds a small quantized network with non-trivial layer
// coverage (conv, relu, pool, gap/flatten, dense) without training: the
// artifact contract is about values, not accuracy.
func artifactNet(t testing.TB, width, bits int, seed int64) *Network {
	t.Helper()
	src := nn.BuildSmallCNN(width, 4, seed)
	calib := serializeInputsExamples(3, seed+1)
	qn, err := Quantize(src, bits, calib)
	if err != nil {
		t.Fatal(err)
	}
	return qn
}

func serializeInputs(n int, seed int64) []*tensor.T {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]*tensor.T, n)
	for i := range xs {
		x := tensor.New(1, 16, 16)
		for j := range x.Data {
			x.Data[j] = float32(math.Abs(rng.NormFloat64()))
		}
		xs[i] = x
	}
	return xs
}

func serializeInputsExamples(n int, seed int64) []nn.Example {
	xs := serializeInputs(n, seed)
	ex := make([]nn.Example, n)
	for i, x := range xs {
		ex[i] = nn.Example{X: x, Label: i % 4}
	}
	return ex
}

// The artifact round trip must reproduce the model exactly: equal
// digests and byte-identical classification — including through a
// stateful SCONNA engine, whose noise stream pairs with the exact
// engine call sequence.
func TestArtifactRoundTripBitIdentical(t *testing.T) {
	t.Parallel()
	qn := artifactNet(t, 3, 7, 31)
	var buf bytes.Buffer
	if err := qn.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Bits != qn.Bits || loaded.NumWeights() != qn.NumWeights() {
		t.Fatalf("loaded bits=%d weights=%d, want bits=%d weights=%d",
			loaded.Bits, loaded.NumWeights(), qn.Bits, qn.NumWeights())
	}
	if got, want := loaded.Digest(), qn.Digest(); got != want {
		t.Fatalf("digest drifted across the round trip: %s vs %s", got.Short(), want.Short())
	}

	factory := SconnaEngineFactory(testCoreConfigSerialize())
	for i, x := range serializeInputs(4, 37) {
		want := qn.Forward(x, ExactEngine{})
		got := loaded.Forward(x, ExactEngine{})
		assertLogitsEqual(t, i, "exact", got, want)

		we, err := factory(i)
		if err != nil {
			t.Fatal(err)
		}
		ge, err := factory(i)
		if err != nil {
			t.Fatal(err)
		}
		assertLogitsEqual(t, i, "sconna", loaded.Forward(x, ge), qn.Forward(x, we))
	}
}

func assertLogitsEqual(t *testing.T, i int, engine string, got, want *tensor.T) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("input %d (%s): %d logits, want %d", i, engine, len(got.Data), len(want.Data))
	}
	for j := range want.Data {
		if got.Data[j] != want.Data[j] {
			t.Fatalf("input %d (%s) logit %d: %v != %v (artifact must be exact)",
				i, engine, j, got.Data[j], want.Data[j])
		}
	}
}

func TestArtifactSaveFileAtomicAndLoadable(t *testing.T) {
	t.Parallel()
	qn := artifactNet(t, 2, 6, 41)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.qnn")
	if err := qn.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Overwrite in place: the temp+rename path must leave exactly one
	// file behind (no stranded temp files).
	if err := qn.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "model.qnn" {
		t.Fatalf("directory after two saves: %v", entries)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Digest() != qn.Digest() {
		t.Fatal("file round trip moved the digest")
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.qnn")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}

// mutatedArtifact saves qn, applies mutate to the decoded wire struct
// and re-encodes it: an artifact that is well-formed gob but whatever
// mutate makes of it.
func mutatedArtifact(t testing.TB, qn *Network, mutate func(*artifact)) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := qn.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var a artifact
	if err := gob.NewDecoder(&buf).Decode(&a); err != nil {
		t.Fatal(err)
	}
	mutate(&a)
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(a); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// overflowDense turns the last layer (the dense head) into Out=4,
// In=2^62 with no weights: Out*In wraps to 0 == len(W).
func overflowDense(a *artifact) {
	l := &a.Layers[len(a.Layers)-1]
	l.Out, l.In, l.W, l.Bias = 4, 1<<62, nil, make([]float32, 4)
}

// overflowConv turns the first conv into OutC=4, InC=1, K=2^31 with no
// weights: OutC*InC*K*K wraps to 0 == len(W).
func overflowConv(a *artifact) {
	l := &a.Layers[0]
	l.OutC, l.InC, l.K, l.W, l.Bias = 4, 1, 1<<31, nil, make([]float32, 4)
}

// Load must reject malformed artifacts with a diagnostic, never build a
// network that would fault mid-forward.
func TestLoadRejectsCorruptArtifacts(t *testing.T) {
	t.Parallel()
	qn := artifactNet(t, 2, 6, 43)
	encode := func(mutate func(*artifact)) *bytes.Buffer {
		return bytes.NewBuffer(mutatedArtifact(t, qn, mutate))
	}

	cases := []struct {
		name   string
		body   *bytes.Buffer
		errHas string
	}{
		{"garbage", bytes.NewBufferString("not a gob stream"), "decoding"},
		{"wrong schema", encode(func(a *artifact) { a.Schema = "repro/other@v9" }), "schema"},
		{"bad bits", encode(func(a *artifact) { a.Bits = 1 }), "precision"},
		{"unknown kind", encode(func(a *artifact) { a.Layers[0].Kind = "lstm" }), "unknown kind"},
		{"truncated weights", encode(func(a *artifact) { a.Layers[0].W = a.Layers[0].W[:3] }), "weights"},
		{"bias mismatch", encode(func(a *artifact) { a.Layers[0].Bias = nil }), "biases"},
		{"zero scale", encode(func(a *artifact) { a.Layers[0].WScale = 0 }), "scale"},
		{"bad geometry", encode(func(a *artifact) { a.Layers[0].K = 0 }), "invalid"},
		// |w| > 2^B - 1 would panic a SCONNA engine at request time; the
		// artifact must die at load instead.
		{"over-range weight", encode(func(a *artifact) { a.Layers[0].W[0] = 1 << 20 }), "magnitude range"},
		{"under-range weight", encode(func(a *artifact) { a.Layers[0].W[1] = -(1 << 20) }), "magnitude range"},
		// A weight count whose product of dimensions overflows int must
		// not wrap into agreement (Forward would panic in makeslice).
		{"dense size overflow", encode(overflowDense), "weights"},
		{"conv size overflow", encode(overflowConv), "weights"},
	}
	for _, c := range cases {
		if _, err := Load(c.body); err == nil || !strings.Contains(err.Error(), c.errHas) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.errHas)
		}
	}
}

// FuzzLoad feeds arbitrary bytes to Load. It must never panic, an
// artifact it accepts must survive Save→Load with the same Digest, and
// the serving shape walk over it must answer without panicking. The
// seeds are saved artifactNets and the two size-overflow artifacts.
func FuzzLoad(f *testing.F) {
	qn := artifactNet(f, 2, 6, 43)
	for _, seed := range []*Network{qn, artifactNet(f, 3, 8, 31)} {
		var buf bytes.Buffer
		if err := seed.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(mutatedArtifact(f, qn, overflowDense))
	f.Add(mutatedArtifact(f, qn, overflowConv))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		_, _ = got.OutputShape([]int{1, 16, 16})
		var buf bytes.Buffer
		if err := got.Save(&buf); err != nil {
			t.Fatalf("saving an accepted artifact: %v", err)
		}
		again, err := Load(&buf)
		if err != nil {
			t.Fatalf("reloading a saved accepted artifact: %v", err)
		}
		if again.Digest() != got.Digest() {
			t.Fatalf("digest moved across Save→Load: %v vs %v", again.Digest(), got.Digest())
		}
	})
}

// The digest is the registry's version ID: any value inference reads
// must move it, and models that differ in weights, precision, or
// architecture must not collide.
func TestNetworkDigestSensitivity(t *testing.T) {
	t.Parallel()
	base := artifactNet(t, 2, 6, 47)
	if artifactNet(t, 2, 6, 47).Digest() != base.Digest() {
		t.Fatal("identical builds disagree: digest not canonical")
	}
	variants := map[string]*Network{
		"precision": artifactNet(t, 2, 7, 47),
		"weights":   artifactNet(t, 2, 6, 48),
		"width":     artifactNet(t, 3, 6, 47),
	}
	seen := map[string]string{base.Digest().String(): "base"}
	for name, qn := range variants {
		d := qn.Digest().String()
		if prev, dup := seen[d]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[d] = name
	}

	// Mutating a single stored value moves the digest.
	mutated := artifactNet(t, 2, 6, 47)
	for _, l := range mutated.layers {
		if l.conv != nil {
			l.conv.W[0]++
			break
		}
	}
	if mutated.Digest() == base.Digest() {
		t.Fatal("mutating a weight did not move the digest")
	}
}

func testCoreConfigSerialize() core.Config {
	cfg := core.DefaultConfig()
	cfg.Bits = 7
	cfg.N = 16
	cfg.M = 1
	cfg.ADCSeed = 77
	return cfg
}
