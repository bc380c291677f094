package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// testNetB is a second, genuinely different quantized model (other
// seed, other precision) so multi-model tests route between distinct
// versions.
var testNetBFixture struct {
	once sync.Once
	qn   *quant.Network
}

func testNetB(t testing.TB) *quant.Network {
	t.Helper()
	testNetBFixture.once.Do(func() {
		net := nn.BuildSmallCNN(2, 4, 35)
		calib := []nn.Example{{X: testInputs(1, 36)[0], Label: 1}}
		qn, err := quant.Quantize(net, 5, calib)
		if err != nil {
			panic(err)
		}
		testNetBFixture.qn = qn
	})
	return testNetBFixture.qn
}

func newTestRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = reg.DrainAll(ctx)
	})
	return reg
}

// twoModelRegistry registers "alpha" (the default) and "beta" with the
// exact engine.
func twoModelRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := newTestRegistry(t)
	if _, err := reg.Register("alpha", testNet(t), quant.SharedEngine(quant.ExactEngine{}), exactOpts(nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("beta", testNetB(t), quant.SharedEngine(quant.ExactEngine{}), exactOpts(nil)); err != nil {
		t.Fatal(err)
	}
	return reg
}

func registryHTTP(t *testing.T, reg *Registry) *httptest.Server {
	t.Helper()
	hs := httptest.NewServer(reg.Handler())
	t.Cleanup(hs.Close)
	return hs
}

func TestRegistryRegisterAndRoute(t *testing.T) {
	reg := twoModelRegistry(t)
	hs := registryHTTP(t, reg)

	alpha, err := reg.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	beta, err := reg.Get("beta")
	if err != nil {
		t.Fatal(err)
	}
	if alpha.Version() != testNet(t).Digest().String() {
		t.Fatalf("alpha version %s is not the network digest", alpha.Version())
	}
	if alpha.Version() == beta.Version() {
		t.Fatal("distinct models share a version: versions are not content-addressed")
	}
	if def, err := reg.Default(); err != nil || def.Name() != "alpha" {
		t.Fatalf("default = %v, %v; want alpha (first registered)", def, err)
	}
	if got := reg.Names(); fmt.Sprint(got) != "[alpha beta]" {
		t.Fatalf("Names() = %v", got)
	}

	// Per-model routing classifies through the right network.
	x := testInputs(1, 103)[0]
	in := marshalInput(t, x.Data)
	for _, c := range []struct {
		model string
		qn    *quant.Network
	}{{"alpha", testNet(t)}, {"beta", testNetB(t)}} {
		resp, err := http.Post(hs.URL+"/v1/models/"+c.model+"/classify", "application/json",
			strings.NewReader(`{"input":`+in+`}`))
		if err != nil {
			t.Fatal(err)
		}
		var res Result
		err = json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s classify: %d %v", c.model, resp.StatusCode, err)
		}
		if want := c.qn.Forward(x, quant.ExactEngine{}).ArgMax(); res.Class != want {
			t.Fatalf("%s classified %d, want %d", c.model, res.Class, want)
		}
	}

	// Unknown models are 404s with a JSON error body, on both routed
	// endpoints.
	for _, path := range []string{"/v1/models/nope/classify", "/v1/models/nope/stats"} {
		req, _ := http.NewRequest(http.MethodPost, hs.URL+path, strings.NewReader(`{"input":`+in+`}`))
		if strings.HasSuffix(path, "/stats") {
			req, _ = http.NewRequest(http.MethodGet, hs.URL+path, nil)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || err != nil || !strings.Contains(e.Error, "nope") {
			t.Fatalf("%s: %d %v %q", path, resp.StatusCode, err, e.Error)
		}
	}
	if _, err := reg.Get("nope"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("Get(nope) = %v, want ErrUnknownModel", err)
	}

	// The listing carries name, version, default flag and live stats.
	resp, err := http.Get(hs.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var listing RegistryStats
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("listing: %d %v", resp.StatusCode, err)
	}
	if listing.DefaultModel != "alpha" || len(listing.Models) != 2 {
		t.Fatalf("listing: %+v", listing)
	}
	if listing.Models[0].Name != "alpha" || !listing.Models[0].Default ||
		listing.Models[1].Name != "beta" || listing.Models[1].Default {
		t.Fatalf("listing order/default flags: %+v", listing.Models)
	}
	if listing.Models[0].Stats.Served == 0 || listing.Models[0].Version != alpha.Version() {
		t.Fatalf("alpha section: %+v", listing.Models[0])
	}

	// Per-model stats endpoint mirrors the Go snapshot.
	resp, err = http.Get(hs.URL + "/v1/models/beta/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || st.Served != 1 {
		t.Fatalf("beta stats: %v %+v", err, st)
	}

	// Wrong methods are JSON 405s.
	resp, err = http.Get(hs.URL + "/v1/models/alpha/classify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET classify: %d", resp.StatusCode)
	}
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	reg := newTestRegistry(t)
	factory := quant.SharedEngine(quant.ExactEngine{})
	if _, err := reg.Register("ok-model.v1", testNet(t), factory, exactOpts(nil)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "a/b", "a b", "héllo", ".", "..", strings.Repeat("x", 129)} {
		if _, err := reg.Register(name, testNet(t), factory, exactOpts(nil)); err == nil {
			t.Errorf("name %q accepted", name)
		}
	}
	if _, err := reg.Register("ok-model.v1", testNet(t), factory, exactOpts(nil)); err == nil ||
		!strings.Contains(err.Error(), "already registered") {
		t.Fatalf("duplicate register: %v", err)
	}
	if _, err := reg.Register("nilnet", nil, factory, exactOpts(nil)); err == nil {
		t.Fatal("nil network accepted")
	}
	// A failed registration must release its name reservation.
	boom := func(int) (quant.DotEngine, error) { return nil, errors.New("boom") }
	if _, err := reg.Register("flaky", testNet(t), boom, exactOpts(nil)); err == nil {
		t.Fatal("factory failure not surfaced")
	}
	if _, err := reg.Register("flaky", testNet(t), factory, exactOpts(nil)); err != nil {
		t.Fatalf("name not released after failed registration: %v", err)
	}
}

// The legacy /v1/classify alias must answer byte-for-byte like a
// standalone single-model Server over the same network — the PR 4
// compatibility contract for existing clients.
func TestRegistryLegacyAliasByteCompatible(t *testing.T) {
	factory := quant.SconnaEngineFactory(testCoreConfig())
	opts := Options{InputShape: testShape, Deterministic: true, PoolSize: 2, MaxBatch: 4, QueueDepth: 64}
	trace := testInputs(6, 107)

	collect := func(url string) []string {
		var bodies []string
		for _, x := range trace {
			code, body := postJSON(t, url, `{"input":`+marshalInput(t, x.Data)+`,"logits":true}`)
			if code != http.StatusOK {
				t.Fatalf("%s: %d %s", url, code, body)
			}
			bodies = append(bodies, body)
		}
		return bodies
	}

	_, direct := httpServer(t, factory, opts)
	want := collect(direct.URL)

	reg := newTestRegistry(t)
	if _, err := reg.Register(DefaultModelName, testNet(t), factory, opts); err != nil {
		t.Fatal(err)
	}
	hs := registryHTTP(t, reg)
	got := collect(hs.URL)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("legacy alias drifted at request %d:\n%s\nvs\n%s", i, got[i], want[i])
		}
	}
}

// The deterministic-replay contract holds independently per model: each
// model's engine derives from its own arrival seq, so interleaved
// multi-model traffic replays bit-identically at any pool size — here
// pools 1, 2 and 4 against the serial per-model reference.
func TestRegistryDeterministicReplayPerModel(t *testing.T) {
	factoryA := quant.SconnaEngineFactory(testCoreConfig())
	cfgB := testCoreConfig()
	cfgB.ADCSeed = 4242
	factoryB := quant.SconnaEngineFactory(cfgB)
	const n = 6
	traceA, traceB := testInputs(n, 109), testInputs(n, 113)

	reference := func(qn *quant.Network, factory quant.EngineFactory, trace []*tensor.T) []*tensor.T {
		out := make([]*tensor.T, len(trace))
		for i, x := range trace {
			eng, err := factory(i)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = qn.ForwardNaive(x, eng)
		}
		return out
	}
	wantA := reference(testNet(t), factoryA, traceA)
	wantB := reference(testNetB(t), factoryB, traceB)

	for _, pool := range []int{1, 2, 4} {
		opts := Options{InputShape: testShape, Deterministic: true, PoolSize: pool, MaxBatch: 4, QueueDepth: 64}
		reg := newTestRegistry(t)
		a, err := reg.Register("alpha", testNet(t), factoryA, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := reg.Register("beta", testNetB(t), factoryB, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Interleave arrivals across the two models: per-model seqs must
		// stay private (0,1,2,... each), untouched by the other model's
		// traffic.
		var gotA, gotB []Result
		for i := 0; i < n; i++ {
			ra, err := a.Server().Submit(context.Background(), traceA[i])
			if err != nil {
				t.Fatal(err)
			}
			rb, err := b.Server().Submit(context.Background(), traceB[i])
			if err != nil {
				t.Fatal(err)
			}
			gotA, gotB = append(gotA, ra), append(gotB, rb)
		}
		check := func(model string, got []Result, want []*tensor.T) {
			for i, res := range got {
				if res.Seq != uint64(i) {
					t.Fatalf("pool=%d %s: arrival %d got seq %d — per-model seqs leaked", pool, model, i, res.Seq)
				}
				for j := range want[i].Data {
					if res.Logits[j] != want[i].Data[j] {
						t.Fatalf("pool=%d %s: arrival %d logit %d: %v != %v (per-model replay must be bit-identical)",
							pool, model, i, j, res.Logits[j], want[i].Data[j])
					}
				}
			}
		}
		check("alpha", gotA, wantA)
		check("beta", gotB, wantB)
	}
}

// Unregister under live traffic: the removed model drains gracefully
// (admitted work finishes, then 404s), the surviving model never sees
// an error.
func TestRegistryUnregisterUnderLiveTraffic(t *testing.T) {
	reg := twoModelRegistry(t)
	hs := registryHTTP(t, reg)
	beta, err := reg.Get("beta")
	if err != nil {
		t.Fatal(err)
	}
	in := marshalInput(t, testInputs(1, 127)[0].Data)

	const clients, perClient = 4, 25
	codes := make([][]int, 2*clients) // [alpha clients..., beta clients...]
	var wg sync.WaitGroup
	post := func(model string) int {
		resp, err := http.Post(hs.URL+"/v1/models/"+model+"/classify", "application/json",
			strings.NewReader(`{"input":`+in+`}`))
		if err != nil {
			return -1
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for c := 0; c < clients; c++ {
		for m, model := range []string{"alpha", "beta"} {
			wg.Add(1)
			go func(slot int, model string) {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					codes[slot] = append(codes[slot], post(model))
				}
			}(m*clients+c, model)
		}
	}
	// Yank beta mid-traffic.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := reg.Unregister(ctx, "beta"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	for c := 0; c < clients; c++ {
		for i, code := range codes[c] {
			if code != http.StatusOK {
				t.Fatalf("alpha client %d request %d: %d — surviving models must be untouched", c, i, code)
			}
		}
		for i, code := range codes[clients+c] {
			switch code {
			case http.StatusOK, http.StatusNotFound, http.StatusServiceUnavailable:
			default:
				t.Fatalf("beta client %d request %d: %d — want 200 (before), 503 (draining) or 404 (after)", c, i, code)
			}
		}
	}
	if !beta.Server().Draining() {
		t.Fatal("unregistered model's server not drained")
	}
	if code := post("beta"); code != http.StatusNotFound {
		t.Fatalf("post-unregister beta: %d, want 404", code)
	}
	if code := post("alpha"); code != http.StatusOK {
		t.Fatalf("post-unregister alpha: %d, want 200", code)
	}
	if _, err := reg.Get("beta"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("Get(beta) after unregister: %v", err)
	}
	if err := reg.Unregister(ctx, "beta"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("double unregister: %v", err)
	}
}

// Unregistering the default model retires the legacy alias (404, never
// a silent re-route to an already-registered model) but frees the
// default slot: the next Register claims it.
func TestRegistryUnregisteredDefaultRetiresAlias(t *testing.T) {
	reg := twoModelRegistry(t)
	hs := registryHTTP(t, reg)
	in := marshalInput(t, testInputs(1, 131)[0].Data)
	if code, _ := postJSON(t, hs.URL, `{"input":`+in+`}`); code != http.StatusOK {
		t.Fatalf("alias before unregister: %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := reg.Unregister(ctx, "alpha"); err != nil {
		t.Fatal(err)
	}
	// beta is still registered, but the alias must NOT re-route to it.
	if code, _ := postJSON(t, hs.URL, `{"input":`+in+`}`); code != http.StatusNotFound {
		t.Fatalf("alias after unregistering its target: %d, want 404", code)
	}
	if st := reg.Stats(); st.DefaultModel != "" {
		t.Fatalf("stats still name a default: %+v", st)
	}
	// The default slot is free again: a fresh registration claims it.
	if _, err := reg.Register("gamma", testNet(t), quant.SharedEngine(quant.ExactEngine{}), exactOpts(nil)); err != nil {
		t.Fatal(err)
	}
	if def, err := reg.Default(); err != nil || def.Name() != "gamma" {
		t.Fatalf("default after re-register = %v, %v; want gamma", def, err)
	}
	if code, _ := postJSON(t, hs.URL, `{"input":`+in+`}`); code != http.StatusOK {
		t.Fatalf("alias after re-register: %d", code)
	}
	// An explicit SetDefault re-points the alias.
	if err := reg.SetDefault("beta"); err != nil {
		t.Fatal(err)
	}
	if def, err := reg.Default(); err != nil || def.Name() != "beta" {
		t.Fatalf("default after SetDefault = %v, %v", def, err)
	}
	if err := reg.SetDefault("ghost"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("SetDefault(ghost): %v", err)
	}
}

// A Register that finishes building after the registry shut down (or
// after its reservation was revoked by Unregister) must not leak the
// fresh server: it drains it and reports the registration lost.
func TestRegistryRegisterLosesRaceToShutdown(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	slowRegister := func(reg *Registry, name string) (chan struct{}, chan struct{}, chan error) {
		started, release, errc := make(chan struct{}), make(chan struct{}), make(chan error, 1)
		factory := func(i int) (quant.DotEngine, error) {
			if i == 0 {
				close(started) // the pool build is now in flight
				<-release
			}
			return quant.ExactEngine{}, nil
		}
		qn := testNet(t)
		go func() {
			_, err := reg.Register(name, qn, factory, Options{InputShape: testShape, PoolSize: 2, MaxBatch: 2})
			errc <- err
		}()
		return started, release, errc
	}

	// DrainAll while the server is still building.
	reg := NewRegistry()
	started, release, errc := slowRegister(reg, "slow")
	<-started
	if err := reg.DrainAll(ctx); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-errc; !errors.Is(err, ErrRegistryClosed) {
		t.Fatalf("register racing DrainAll: %v, want ErrRegistryClosed", err)
	}

	// Unregister revoking a mid-flight reservation.
	reg2 := newTestRegistry(t)
	started, release, errc = slowRegister(reg2, "slow")
	<-started
	if err := reg2.Unregister(ctx, "slow"); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "unregistered during registration") {
		t.Fatalf("register racing Unregister: %v", err)
	}
	if _, err := reg2.Get("slow"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("revoked model still visible: %v", err)
	}
}

func TestRegistryDrainAll(t *testing.T) {
	reg := twoModelRegistry(t)
	hs := registryHTTP(t, reg)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := reg.DrainAll(ctx); err != nil {
		t.Fatal(err)
	}
	if !reg.Draining() || reg.Len() != 0 {
		t.Fatalf("draining=%v len=%d after DrainAll", reg.Draining(), reg.Len())
	}
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d", resp.StatusCode)
	}
	in := marshalInput(t, testInputs(1, 137)[0].Data)
	for _, path := range []string{"/v1/classify", "/v1/models/alpha/classify"} {
		resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(`{"input":`+in+`}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s while draining: %d", path, resp.StatusCode)
		}
	}
	if _, err := reg.Register("late", testNet(t), quant.SharedEngine(quant.ExactEngine{}), exactOpts(nil)); !errors.Is(err, ErrRegistryClosed) {
		t.Fatalf("register after DrainAll: %v", err)
	}
	if err := reg.DrainAll(ctx); err != nil {
		t.Fatalf("second DrainAll: %v", err)
	}
}
