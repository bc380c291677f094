package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/quant"
	"repro/internal/sckernel"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// engineFactory builds the workload's dot-product substrate at a model's
// precision, configured as sconnaserve's -engine flag does.
func engineFactory(engine string, bits int) (quant.EngineFactory, error) {
	switch engine {
	case "exact":
		return quant.SharedEngine(quant.ExactEngine{}), nil
	case "sconna-packed":
		cfg := core.DefaultConfig()
		cfg.Bits = bits
		cfg.N = 64
		cfg.M = 1
		cfg.ADCSeed = 2023
		return sckernel.EngineFactory(cfg), nil
	}
	return nil, fmt.Errorf("unknown engine %q", engine)
}

// serveOptions are sconnaserve's serving defaults (MaxBatch 32, MaxWait
// 0, queue 4x32, pool = GOMAXPROCS); telemetry is on only for the traced
// run.
func serveOptions(traced bool) serve.Options {
	o := serve.Options{
		MaxBatch:   batch,
		QueueDepth: 4 * batch,
		InputShape: []int{1, 16, 16},
		ClassNames: dataset.ClassNames[:],
	}
	if traced {
		o.Telemetry = &telemetry.Options{TraceRing: 4096}
	}
	return o
}

// stack is one booted serving stack: a replica registry behind a
// loopback listener, and for routed workloads a fleet router in front.
type stack struct {
	reg     *serve.Registry
	replica *http.Server
	router  *fleet.Router
	front   *http.Server // router listener; nil when unrouted
	url     string       // base URL the clients target
}

// bootTimes splits one boot into the calls it makes.
type bootTimes struct {
	SetupS     float64 `json:"setup_s"`
	LoadMS     float64 `json:"load_ms"`
	RegisterMS float64 `json:"register_ms"`
	FirstMS    float64 `json:"first_ms"`
}

// boot brings the workload's stack up from the fixture artifacts and
// returns once every model has answered one classify with 200. wrap,
// when non-nil, wraps the replica ("serve") and router ("fleet")
// handlers; traced turns the telemetry plane on.
func boot(w *workload, paths map[string]string, first []float32, traced bool, wrap func(layer string, h http.Handler) http.Handler) (*stack, bootTimes, error) {
	if wrap == nil {
		wrap = func(_ string, h http.Handler) http.Handler { return h }
	}
	var bt bootTimes
	t0 := time.Now()
	nets := make([]*quant.Network, len(w.Models))
	for i, name := range w.Models {
		qn, err := quant.LoadFile(paths[name])
		if err != nil {
			return nil, bt, err
		}
		nets[i] = qn
	}
	t1 := time.Now()
	st := &stack{reg: serve.NewRegistry()}
	for i, name := range w.Models {
		factory, err := engineFactory(w.Engine, nets[i].Bits)
		if err != nil {
			return nil, bt, err
		}
		if _, err := st.reg.Register(name, nets[i], factory, serveOptions(traced)); err != nil {
			st.close()
			return nil, bt, err
		}
	}
	t2 := time.Now()
	hs, url, err := serve.ListenLocal(wrap("serve", st.reg.Handler()))
	if err != nil {
		st.close()
		return nil, bt, err
	}
	st.replica, st.url = hs, url
	if w.Routed {
		st.router = fleet.NewRouter(fleet.RouterOptions{Replicas: []string{url}})
		st.router.SetModels(w.Models)
		fs, furl, err := serve.ListenLocal(wrap("fleet", st.router.Handler()))
		if err != nil {
			st.close()
			return nil, bt, err
		}
		st.front, st.url = fs, furl
	}
	t3 := time.Now()
	if err := st.firstClassify(w, first); err != nil {
		st.close()
		return nil, bt, err
	}
	t4 := time.Now()
	bt = bootTimes{
		SetupS:     t4.Sub(t0).Seconds(),
		LoadMS:     ms(t1.Sub(t0)),
		RegisterMS: ms(t2.Sub(t1)),
		FirstMS:    ms(t4.Sub(t3)),
	}
	return st, bt, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// firstClassify posts one input to every model in the workload's wire
// format and requires a 200 from each.
func (st *stack) firstClassify(w *workload, x []float32) error {
	body, err := encodeBody(w, [][]float32{x}, 0, 1)
	if err != nil {
		return err
	}
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	for _, name := range w.Models {
		resp, err := hc.Post(st.url+w.path(name), contentType(w), bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("first classify on %q: %w", name, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("first classify on %q: status %d", name, resp.StatusCode)
		}
	}
	return nil
}

func contentType(w *workload) string {
	if w.Open {
		return "application/json"
	}
	return "application/octet-stream"
}

// close stops the listeners and drains every model.
func (st *stack) close() error {
	if st.front != nil {
		st.front.Close()
	}
	if st.replica != nil {
		st.replica.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return st.reg.DrainAll(ctx)
}

// bootEnv carries a child boot's request; its presence in the
// environment turns the process into a one-shot boot probe.
const bootEnv = "SCONNABENCH_BOOT"

type bootRequest struct {
	Workload string            `json:"workload"`
	Paths    map[string]string `json:"paths"`
	Seed     int64             `json:"seed"`
}

// childBoot runs the probe side of a setup measurement in a fresh
// process, so memoized state such as the SC kernel planes starts cold:
// boot the stack, print its timings as JSON, shut down.
func childBoot(spec string) error {
	var req bootRequest
	if err := json.Unmarshal([]byte(spec), &req); err != nil {
		return fmt.Errorf("decoding boot request: %w", err)
	}
	w, err := workloadByName(req.Workload)
	if err != nil {
		return err
	}
	cfg := dataset.DefaultConfig()
	cfg.Seed = req.Seed
	first := dataset.Generate(cfg, 1)[0].X.Data
	st, bt, err := boot(w, req.Paths, first, false, nil)
	if err != nil {
		return err
	}
	if err := st.close(); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(bt)
}

// measureSetup boots the workload n times, each in a fresh child
// process of this executable, and returns the median of each timing.
func measureSetup(w *workload, paths map[string]string, seed int64, n int) (bootTimes, error) {
	if n < 1 {
		return bootTimes{}, errors.New("no boots requested")
	}
	exe, err := os.Executable()
	if err != nil {
		return bootTimes{}, err
	}
	spec, err := json.Marshal(bootRequest{Workload: w.Name, Paths: paths, Seed: seed})
	if err != nil {
		return bootTimes{}, err
	}
	var setup, load, register, first []float64
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		cmd := exec.CommandContext(ctx, exe)
		cmd.Env = append(os.Environ(), bootEnv+"="+string(spec))
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		cancel()
		if err != nil {
			return bootTimes{}, fmt.Errorf("boot probe %d: %w: %s", i, err, stderr.String())
		}
		var bt bootTimes
		if err := json.Unmarshal(out, &bt); err != nil {
			return bootTimes{}, fmt.Errorf("boot probe %d output: %w", i, err)
		}
		setup = append(setup, bt.SetupS)
		load = append(load, bt.LoadMS)
		register = append(register, bt.RegisterMS)
		first = append(first, bt.FirstMS)
	}
	return bootTimes{SetupS: median(setup), LoadMS: median(load), RegisterMS: median(register), FirstMS: median(first)}, nil
}
