// Command experiments regenerates every table and figure of the SCONNA
// paper from this reproduction, printing paper-vs-measured comparisons.
//
// Usage:
//
//	experiments -exp all|table1|table2|fig6c|fig7a|fig7b|fig9|table5|energy|ablations|ablation-b|ablation-sng|ablation-psum|ablation-batch [-quick] [-workers N] [-train-workers N] [-out DIR] [-cache-dir DIR] [-cache-max-bytes N] [-cache-max-age D]
//
// -exp ablations runs the four ablation-* tables; an unknown -exp
// name exits 2 with the list above.
//
// -quick shrinks the Table V training runs for smoke tests; -workers
// bounds the concurrency of the design-space sweeps and the Table V
// study (0 = all cores; results are identical at every worker count);
// -train-workers additionally fans each Table V training run across
// data-parallel gradient workers (bit-identical at every count >= 1;
// 0 keeps the legacy serial trainer);
// -out writes each experiment's rows as CSV files into DIR; -cache-dir
// persists design-space results in a content-addressed store so
// repeated runs recompute only changed cells (cached results are
// bit-identical, so stdout never depends on the cache state; traffic
// stats print to stderr). Long-lived stores stay bounded with
// -cache-max-bytes / -cache-max-age, which garbage-collect the disk
// store at open (evicted entries recompute on demand, never go stale).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	sconna "repro"
	"repro/internal/accel"
	"repro/internal/accuracy"
	"repro/internal/bitstream"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opcount"
	"repro/internal/photonics"
	"repro/internal/quant"
	"repro/internal/report"
	"repro/internal/sc"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// experimentIDs is the documented -exp list, in usage order.
var experimentIDs = []string{
	"all", "table1", "table2", "fig6c", "fig7a", "fig7b", "fig9", "table5", "energy",
	"ablations", "ablation-b", "ablation-sng", "ablation-psum", "ablation-batch",
}

func main() {
	exp := flag.String("exp", "all", "experiment id: "+strings.Join(experimentIDs, "|"))
	quick := flag.Bool("quick", false, "reduced-size Table V study")
	workers := flag.Int("workers", 0, "worker pool size for sweeps and the Table V study (0 = all cores)")
	trainWorkers := flag.Int("train-workers", 0,
		"data-parallel gradient workers per Table V training run (0 = legacy serial trainer, -1 = all cores)")
	out := flag.String("out", "", "directory to write CSV outputs")
	cacheDir := flag.String("cache-dir", "", "persist design-space results in this content-addressed store")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 0,
		"garbage-collect the disk store down to this many bytes at open (0 = unbounded)")
	cacheMaxAge := flag.Duration("cache-max-age", 0,
		"evict disk-store entries older than this at open (0 = no age bound)")
	shardSpec := flag.String("shard", "",
		"compute only shard i/n of the cacheable sweeps (fig9, table1, energy) into -cache-dir and exit without printing tables; disjoint shard stores union into one warm store (use the same -quick on every shard)")
	flag.Parse()
	if !slices.Contains(experimentIDs, *exp) {
		fmt.Fprintf(os.Stderr, "experiments: unknown -exp %q; want one of %s\n", *exp, strings.Join(experimentIDs, "|"))
		os.Exit(2)
	}
	pool := *workers

	shard, err := sconna.ParseShard(*shardSpec)
	if err != nil {
		fatal(err)
	}

	arun, err := sconna.NewAccelRunner(sconna.AccelRunnerOptions{
		Workers: pool, CacheDir: *cacheDir,
		CacheMaxBytes: *cacheMaxBytes, CacheMaxAge: *cacheMaxAge,
	})
	if err != nil {
		fatal(err)
	}
	srun, err := sconna.NewScalabilityRunner(sconna.DefaultScalabilityConfig(),
		sconna.ScalabilityRunnerOptions{
			Workers: pool, CacheDir: *cacheDir,
			CacheMaxBytes: *cacheMaxBytes, CacheMaxAge: *cacheMaxAge,
		})
	if err != nil {
		fatal(err)
	}
	erun, err := opcount.NewRunner(opcount.RunnerOptions{
		CacheDir: *cacheDir, CacheMaxBytes: *cacheMaxBytes, CacheMaxAge: *cacheMaxAge,
	})
	if err != nil {
		fatal(err)
	}

	if shard.Enabled() {
		if *cacheDir == "" {
			fatal(fmt.Errorf("-shard needs -cache-dir: the union of the shard stores is the product"))
		}
		if err := runShard(*exp, shard, arun, srun, erun, *quick); err != nil {
			fatal(err)
		}
		reportCache("accel", arun.Stats())
		reportCache("scalability", srun.Stats())
		reportCache("energy", erun.Stats())
		return
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
	}
	run := func(name string, fn func() *report.Table) {
		if *exp != "all" && *exp != name {
			return
		}
		t := fn()
		fmt.Println(t.String())
		if *out != "" {
			path := filepath.Join(*out, name+".csv")
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n\n", path)
		} else {
			fmt.Println()
		}
	}

	run("table1", func() *report.Table { return tableI(srun) })
	run("table2", tableII)
	run("fig6c", fig6c)
	run("fig7a", fig7a)
	run("fig7b", fig7b)
	run("fig9", func() *report.Table { return fig9(arun) })
	if *exp == "all" || *exp == "table5" {
		run("table5", func() *report.Table { return tableV(*quick, pool, *trainWorkers) })
	}
	run("energy", func() *report.Table { return energyTable(erun, *quick) })
	if *exp == "ablations" {
		*exp = "all" // expand the group: run() filters by name
	}
	run("ablation-b", func() *report.Table { return ablationStreamLength(arun) })
	run("ablation-sng", ablationSNG)
	run("ablation-psum", ablationPsum)
	run("ablation-batch", func() *report.Table { return ablationBatch(arun) })

	// Cache traffic goes to stderr so stdout stays byte-identical between
	// cold and warm runs (the CI smoke step relies on both properties).
	if *cacheDir != "" {
		reportCache("accel", arun.Stats())
		reportCache("scalability", srun.Stats())
		reportCache("energy", erun.Stats())
	}
}

// reportCache prints one store's traffic counters to stderr (idle stores
// stay silent).
func reportCache(name string, s sconna.CacheStats) {
	if s.Lookups == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "cache[%s]: %s\n", name, s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

// tableI reproduces Table I: max VDPE size N for the analog
// organizations, solving the cells through the cache-aware runner.
func tableI(srun *sconna.ScalabilityRunner) *report.Table {
	t := report.NewTable("Table I — analog VDPE size N vs precision and data rate",
		"org", "precision", "DR (GS/s)", "N (measured)", "N (paper)")
	for _, c := range srun.TableI() {
		t.AddRow(c.Org.String(), fmt.Sprintf("%d-bit", c.Precision), c.DataRate/1e9, c.N, c.PaperN)
	}
	s := sconna.SolveSconnaN(30e9)
	t.AddRow("SCONNA", "8-bit(streams)", 30.0, s.NWithPaperSensitivity, s.PaperN)
	return t
}

// tableII reproduces the kernel census.
func tableII() *report.Table {
	t := report.NewTable("Table II — convolutional kernels by DKV size S (threshold 44)",
		"model", "S<=44", "S>44", "paper S<=44", "paper S>44")
	for _, m := range sconna.TableIIModels() {
		le, gt := m.KernelCensus(44)
		ref := models.PaperTableII[m.Name]
		t.AddRow(m.Name, le, gt, ref.LE, ref.GT)
	}
	for _, m := range []models.Model{models.MobileNetV2(), models.ShuffleNetV2()} {
		le, gt := m.KernelCensus(44)
		t.AddRow(m.Name+" (extra)", le, gt, "-", "-")
	}
	return t
}

// fig6c validates the OAG transient: T(lambda_in) = I AND W at 10 Gbps.
func fig6c() *report.Table {
	t := report.NewTable("Fig. 6(c) — OAG transient analysis at 10 Gbps (PRBS operands)",
		"bits", "decode errors", "contrast (dB)")
	g := photonics.NewOAG(0.35)
	rng := rand.New(rand.NewSource(2023))
	n := 256
	ib := make([]bool, n)
	wb := make([]bool, n)
	for i := range ib {
		ib[i] = rng.Intn(2) == 1
		wb[i] = rng.Intn(2) == 1
	}
	const spb = 16
	trace := g.Transient(ib, wb, 10e9, spb)
	decoded := g.DecodeTransient(trace, spb)
	errs := 0
	for i, d := range decoded {
		if d != (ib[i] && wb[i]) {
			errs++
		}
	}
	t.AddRow(n, errs, g.ContrastDB())
	return t
}

// fig7a reproduces the bitrate-vs-FWHM frontier.
func fig7a() *report.Table {
	t := report.NewTable("Fig. 7(a) — max OAG bitrate vs FWHM at OMA = -28 dBm",
		"FWHM (nm)", "BR (Gbps)")
	var fwhms []float64
	for f := 0.1; f <= 1.2001; f += 0.1 {
		fwhms = append(fwhms, f)
	}
	for _, p := range sconna.Fig7a(-28, fwhms) {
		t.AddRow(p.FWHMNM, p.BitrateHz/1e9)
	}
	return t
}

// fig7b reproduces the PCA linearity sweep.
func fig7b() *report.Table {
	t := report.NewTable("Fig. 7(b) — PCA analog output voltage vs alpha (N=176, 2^8-bit streams)",
		"alpha (%)", "V (analog)")
	for _, p := range sconna.Fig7b(20) {
		t.AddRow(p.AlphaPct, p.VoltageV)
	}
	return t
}

// fig9 reproduces the headline comparison, fanning the 12 simulations
// across the worker pool through the cache-aware runner.
func fig9(arun *sconna.AccelRunner) *report.Table {
	data, err := arun.Fig9(
		[]sconna.AccelConfig{sconna.SconnaAccel(), sconna.MAMAccel(), sconna.AMMAccel()},
		sconna.EvaluatedModels())
	if err != nil {
		fatal(err)
	}
	t := report.NewTable("Fig. 9 — FPS / FPS/W / FPS/W/mm^2 (batch 1, 8-bit)",
		"model", "accelerator", "FPS", "FPS/W", "FPS/W/mm2", "power (W)", "latency (ms)")
	for _, r := range data.Rows {
		t.AddRow(r.Model, r.Accel, r.FPS, r.FPSPerW, r.FPSPerWMM, r.PowerW, r.LatencyMS)
	}
	// Sorted baseline order: map iteration would shuffle the rows
	// between runs, breaking the "identical output at every worker
	// count" contract at the CLI surface.
	baselines := make([]string, 0, len(accel.PaperFig9Gmeans))
	for name := range accel.PaperFig9Gmeans {
		baselines = append(baselines, name)
	}
	sort.Strings(baselines)
	for _, name := range baselines {
		ref := accel.PaperFig9Gmeans[name]
		t.AddRow("GMEAN RATIO vs", name,
			fmt.Sprintf("%.1fx (paper %.1fx)", data.GmeanFPS[name], ref.FPS),
			fmt.Sprintf("%.1fx (paper %.0fx)", data.GmeanFPSPerW[name], ref.FPSPerW),
			fmt.Sprintf("%.1fx (paper %.0fx)", data.GmeanFPSPerWMM[name], ref.FPSPerWMM),
			"-", "-")
	}
	return t
}

// tableV reproduces the accuracy-drop study; the four proxy pipelines
// train in parallel (optionally with data-parallel gradient workers
// inside each training run) and each evaluation fans example shards
// across engine-per-shard workers.
func tableV(quick bool, pool, trainWorkers int) *report.Table {
	opts := sconna.DefaultAccuracyOptions()
	if quick {
		opts = sconna.QuickAccuracyOptions()
	}
	opts.Workers = pool
	opts.TrainWorkers = trainWorkers
	rows, err := sconna.RunTableV(opts)
	if err != nil {
		fatal(err)
	}
	t := report.NewTable("Table V — Top-1/Top-5 accuracy drop, exact int8 vs SCONNA (proxy models)",
		"model", "params", "top1 exact", "top1 sconna", "drop1 (pp)", "drop5 (pp)", "paper drop1", "paper drop5")
	for _, r := range rows {
		if ref, ok := accuracy.PaperTableV[r.Model]; ok {
			t.AddRow(r.Model, r.Params, r.Top1Exact, r.Top1Sconna, r.Drop1, r.Drop5, ref[0], ref[1])
		} else {
			t.AddRow(r.Model, "-", "-", "-", r.Drop1, r.Drop5, 0.4, 0.3)
		}
	}
	return t
}

// ablationStreamLength (A1): SCONNA FPS vs stream precision B.
func ablationStreamLength(arun *sconna.AccelRunner) *report.Table {
	t := report.NewTable("Ablation A1 — SCONNA stream length 2^B vs throughput (ResNet50)",
		"B (bits)", "stream bits", "op latency (ns)", "FPS")
	bitsList := []int{4, 6, 8}
	var jobs []sconna.AccelJob
	for _, b := range bitsList {
		cfg := sconna.SconnaAccel()
		cfg.Precision = b
		cfg.SlicePrecision = b
		jobs = append(jobs, sconna.AccelJob{Cfg: cfg, Model: models.ResNet50()})
	}
	results, err := arun.SimulateAll(jobs)
	if err != nil {
		fatal(err)
	}
	for i, b := range bitsList {
		t.AddRow(b, 1<<uint(b), jobs[i].Cfg.OpNS(), results[i].FPS)
	}
	return t
}

// ablationSNG (A2): deterministic LUT streams vs LFSR random streams.
func ablationSNG() *report.Table {
	t := report.NewTable("Ablation A2 — multiplication error by stream generator pairing (B=8)",
		"pairing", "MAE (x1e-3 FS)", "max err (x1e-3 FS)")
	type pair struct {
		name   string
		gi, gw bitstream.Generator
	}
	for _, p := range []pair{
		{"unary x bresenham (OSM LUT)", bitstream.Unary{}, bitstream.Bresenham{}},
		{"unary x van-der-corput", bitstream.Unary{}, bitstream.VanDerCorput{}},
		{"lfsr8 x lfsr8 (random SNG)", bitstream.LFSR{Width: 8, Seed: 1}, bitstream.LFSR{Width: 8, Seed: 0xB5}},
	} {
		mae, maxe := sc.MulError(p.gi, p.gw, 8, 9)
		t.AddRow(p.name, mae*1e3, maxe*1e3)
	}
	return t
}

// ablationPsum (A3): why large N wins — psums per output vs VDPE size.
func ablationPsum() *report.Table {
	t := report.NewTable("Ablation A3 — psums per output and serial reduction time vs VDPE size",
		"S", "N=16 (C / ns)", "N=22 (C / ns)", "N=44 (C / ns)", "N=176 (C / ns)")
	const redNS = 3.125
	for _, s := range []int{9, 64, 576, 2304, 4608} {
		row := []any{s}
		for _, n := range []int{16, 22, 44, 176} {
			c := (s + n - 1) / n
			row = append(row, fmt.Sprintf("%d / %.1f", c, float64(c-1)*redNS))
		}
		t.AddRow(row...)
	}
	return t
}

// ablationBatch (A4): batching amortizes weight reloads — by how much,
// per accelerator (ResNet50). The 9 (accelerator, batch) simulations fan
// across the worker pool.
func ablationBatch(arun *sconna.AccelRunner) *report.Table {
	t := report.NewTable("Ablation A4 — batch size vs FPS (ResNet50; analog reloads amortize)",
		"accelerator", "batch 1", "batch 8", "batch 32", "speedup @32")
	bases := []sconna.AccelConfig{sconna.SconnaAccel(), sconna.MAMAccel(), sconna.AMMAccel()}
	batches := []int{1, 8, 32}
	var jobs []sconna.AccelJob
	for _, base := range bases {
		for _, b := range batches {
			cfg := base
			cfg.Batch = b
			jobs = append(jobs, sconna.AccelJob{Cfg: cfg, Model: models.ResNet50()})
		}
	}
	results, err := arun.SimulateAll(jobs)
	if err != nil {
		fatal(err)
	}
	for bi, base := range bases {
		fps := map[int]float64{}
		for i, b := range batches {
			fps[b] = results[bi*len(batches)+i].FPS
		}
		t.AddRow(base.Name, fps[1], fps[8], fps[32], fps[32]/fps[1])
	}
	return t
}

// energySparsities is the fixed sweep of the energy experiment: the row
// set never depends on -quick (only the per-cell input count does), so
// the table shape is a golden contract.
var energySparsities = []float64{0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}

// energyTable sweeps input sparsity over the golden quantized CNN and
// prices the op-accounting profiles under the electronic (Horowitz
// ISSCC'14) and SCONNA energy models: per-inference dense vs executed
// op totals, the zero-skipped fraction, and microjoules per inference.
// Cells are content-addressed by (network digest, sparsity, seed, n) —
// a warm cache recomputes nothing and the table is byte-identical.
func energyTable(erun *opcount.Runner, quick bool) *report.Table {
	qn := energyNetwork()
	t := report.NewTable("Energy — op/energy accounting vs input sparsity (width-8 CNN, 8-bit, exact engine)",
		"sparsity", "dense Mops/inf", "exec Mops/inf", "skipped %",
		"elec dense uJ/inf", "elec uJ/inf", "sconna uJ/inf")
	for _, sp := range energySparsities {
		prof := energyProfile(erun, qn, sp, quick)
		dense, exec := prof.Dense(), prof.Exec()
		ninf := float64(prof.Inferences)
		t.AddRow(sp,
			float64(dense.Total())/ninf/1e6,
			float64(exec.Total())/ninf/1e6,
			100*prof.SkippedFrac(),
			opcount.Electronic().UJ(dense)/ninf,
			opcount.Electronic().UJ(exec)/ninf,
			opcount.Sconna().UJ(exec)/ninf)
	}
	return t
}

// energyNetwork builds the golden quantized CNN the energy experiment
// prices; every shard must price the same network for cells to union.
func energyNetwork() *quant.Network {
	net := nn.BuildSmallCNN(8, 8, 1)
	calib := &tensor.T{Shape: []int{1, 16, 16}, Data: serve.SparseInputs(1, 256, 0, 1)[0]}
	qn, err := quant.Quantize(net, 8, []nn.Example{{X: calib, Label: 0}})
	if err != nil {
		fatal(err)
	}
	return qn
}

// energyProfile solves (or recalls) one sparsity cell of the energy
// sweep through the content-addressed store.
func energyProfile(erun *opcount.Runner, qn *quant.Network, sp float64, quick bool) opcount.Profile {
	const seed = 2023
	n := 32
	if quick {
		n = 8
	}
	key := opcount.JobDigest(qn.Digest(), sp, seed, n)
	prof, err := erun.Profile(key, func() (opcount.Profile, error) {
		rec := qn.OpRecorder()
		s := quant.NewBatchScratch()
		s.Ops = rec
		engines := []quant.DotEngine{quant.ExactEngine{}}
		for _, raw := range serve.SparseInputs(n, 256, sp, seed) {
			qn.ForwardBatch([]*tensor.T{{Shape: []int{1, 16, 16}, Data: raw}}, engines, s)
		}
		rec.AddInferences(uint64(n))
		return rec.Snapshot(), nil
	})
	if err != nil {
		fatal(err)
	}
	return prof
}

// runShard is the fleet-distribution mode: compute only this machine's
// shard of the cacheable sweeps into the shared content-addressed
// store, print a stderr summary, and skip the tables. N machines run
// disjoint shards against their own store roots; the directory union
// of those roots answers the full unsharded run with zero misses, so
// its merged stdout is byte-identical to a single-machine run.
func runShard(exp string, sh sconna.Shard, arun *sconna.AccelRunner, srun *sconna.ScalabilityRunner,
	erun *opcount.Runner, quick bool) error {
	matched := false
	if exp == "all" || exp == "fig9" {
		matched = true
		cfgs := []sconna.AccelConfig{sconna.SconnaAccel(), sconna.MAMAccel(), sconna.AMMAccel()}
		ms := sconna.EvaluatedModels()
		res, err := arun.SweepShard(cfgs, ms, sh.Index, sh.Count)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "shard %s: fig9 solved %d of %d accel jobs\n",
			sh, len(res), len(accel.SweepJobs(cfgs, ms)))
	}
	if exp == "all" || exp == "table1" {
		matched = true
		cells := srun.TableIShard(sh.Index, sh.Count)
		fmt.Fprintf(os.Stderr, "shard %s: table1 solved %d cells\n", sh, len(cells))
	}
	if exp == "all" || exp == "energy" {
		matched = true
		qn := energyNetwork()
		span := sh.Span(len(energySparsities))
		for _, sp := range energySparsities[span.Lo:span.Hi] {
			energyProfile(erun, qn, sp, quick)
		}
		fmt.Fprintf(os.Stderr, "shard %s: energy solved %d of %d cells\n",
			sh, span.Hi-span.Lo, len(energySparsities))
	}
	if !matched {
		return fmt.Errorf("-shard applies to all|fig9|table1|energy, not %q", exp)
	}
	return nil
}
