// Command perfbench is the repository benchmark. It serves models with
// internal/server in-process on a loopback listener, drives the server
// through rsm.Client with one seeded workload, checks every answer against
// an oracle, and prints one JSON result as its last line of output:
//
//	bash perfbench/run.sh --workload fit-cv --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the run replays the workload a second time with spans recorded around
// every call the benchmark makes into a layer, then walks a sample of the
// same inputs down the layer ladder (rsm client → raw HTTP → handler →
// core/basis/yield/registry), and the result carries the per-layer
// metrics. BENCHMARK.json at the repository root lists both sets.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// processStart approximates process start for the first set-up's time.
var processStart = time.Now()

// Run-shape constants. Every op count is fixed by the workload and
// --seconds alone, never by how fast ops complete.
const (
	// setups is how many times a run sets up the server; setup_s is the
	// median. The last set-up's server is the one measured.
	setups = 5
	// warmPredicts, one yield and one scrape warm each set-up's server.
	warmPredicts = 200
	// fitsPerTenSeconds sizes fit-cv: ops = seconds × this / 10.
	fitsPerTenSeconds = 13
	// probe* size the closed-loop probe that measures the op kinds a
	// workload's mix lacks.
	probePredicts = 16000
	probeYields   = 40
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload: fit-cv | mixed")
	fs.Int64Var(&opt.seed, "seed", 1, "input seed")
	fs.IntVar(&opt.seconds, "seconds", 30, "nominal length of the timed phase in seconds (sizes the op counts)")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if _, ok := workloads[opt.workload]; !ok {
		return opt, fmt.Errorf("unknown workload %q", opt.workload)
	}
	if opt.seconds < 1 || opt.seconds > 600 {
		return opt, fmt.Errorf("--seconds %d outside [1, 600]", opt.seconds)
	}
	if trace != 0 && trace != 1 {
		return opt, fmt.Errorf("--trace %d, want 0 or 1", trace)
	}
	opt.trace = trace == 1
	return opt, nil
}

func main() {
	opt, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workload is one traffic mix. rounds splits its timed phase, and the
// probe that follows each slice of it, into that many alternating slices,
// so that every metric samples the same stretch of the run; main runs
// slice r of the timed phase. has lists the op kinds the timed phase
// issues; the probe measures the others.
type workload struct {
	solver string // solver of the workload's fit ops
	rounds int
	has    map[opKind]bool
	main   func(b *bench, ctx context.Context, ph *phase, r int)
}

var workloads = map[string]workload{
	"fit-cv": {
		solver: "omp",
		rounds: 20,
		has:    map[opKind]bool{opFit: true},
		main: func(b *bench, ctx context.Context, ph *phase, r int) {
			lo, hi := share(b.fitCVOps(), r, b.w.rounds)
			b.closedFits(ctx, ph, lo, hi)
		},
	},
	"mixed": {
		solver: "lar",
		rounds: 1,
		has:    map[opKind]bool{opPredict: true, opYield: true, opFit: true, opMetrics: true},
		main:   func(b *bench, ctx context.Context, ph *phase, _ int) { b.runMixed(ctx, ph) },
	},
}

// share is slice r of n items split into rounds slices: [lo, hi).
func share(n, r, rounds int) (lo, hi int) { return n * r / rounds, n * (r + 1) / rounds }

// bench is one run's state.
type bench struct {
	opt   options
	w     workload
	nproc int
	data  *dataset
	sched []schedOp
	dir   string
	st    *stack
	// tr records spans; nil outside the traced replay.
	tr *tracer
	// tag distinguishes the model names of the untraced and traced phases.
	tag string
	// setupRelErr holds the held-out error of each set-up's served fit.
	setupRelErr []float64
}

func (b *bench) length() time.Duration { return time.Duration(b.opt.seconds) * time.Second }

func (b *bench) fitCVOps() int { return (b.opt.seconds*fitsPerTenSeconds + 9) / 10 }

// workloadFits is how many training sets the workload's own fits use.
func (b *bench) workloadFits() int {
	if b.opt.workload == "mixed" {
		_, n := mixedCounts(b.length())
		return n
	}
	return b.fitCVOps()
}

func run(opt options) (*result, error) {
	b := &bench{opt: opt, w: workloads[opt.workload], nproc: runtime.NumCPU()}
	env := newEnvHeader(opt)
	hdr, _ := json.Marshal(env)
	fmt.Printf("# env %s\n", hdr)

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, err
	}
	b.dir = dir
	defer os.RemoveAll(dir)

	ctx := context.Background()
	setupTimes, err := b.setup(ctx)
	if err != nil {
		return nil, err
	}
	defer b.st.close()
	fmt.Printf("# dataset sha256=%s schedule sha256=%s\n", b.data.checksum, scheduleSum(b.sched))

	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	// The untraced run. A traced run repeats it with spans on; the first
	// pass is the base of the tracing overhead.
	b.tag = "a"
	main, probe, err := b.runPhases(ctx, res)
	if err != nil {
		return nil, err
	}
	if !opt.trace {
		if err := b.endToEnd(res, setupTimes, main, probe); err != nil {
			return nil, err
		}
		return res, nil
	}
	b.tag = "b"
	b.tr = newTracer()
	tmain, tprobe, err := b.runPhases(ctx, res)
	if err != nil {
		return nil, err
	}
	if err := b.perLayer(ctx, res, main, tmain, tprobe); err != nil {
		return nil, err
	}
	spans := b.tr.snapshot()
	writeSummary(os.Stdout, spans)
	path, err := writeSpans(filepath.Join(".bench_build", "spans"), fmt.Sprintf("%s-seed%d.json", opt.workload, opt.seed), spans)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("# spans written to %s\n", path)
	return res, nil
}

// setup generates the inputs and brings up the server `setups` times,
// each time from scratch in a fresh directory: registry and journal open,
// the served model's fit through the fit-job path, warm-up ops and a GC.
// It returns each set-up's duration; the first runs from process start.
func (b *bench) setup(ctx context.Context) ([]time.Duration, error) {
	var times []time.Duration
	t0 := processStart
	for r := 0; r < setups; r++ {
		if b.st != nil {
			if err := b.st.close(); err != nil {
				return nil, fmt.Errorf("close set-up %d: %w", r-1, err)
			}
			b.st = nil
			t0 = time.Now()
		}
		nYield := 1 + probeYields
		if ny, _ := mixedCounts(b.length()); ny+1 > nYield {
			nYield = ny + 1
		}
		b.data = generate(b.opt.seed, setups+b.workloadFits(), nYield)
		if b.opt.workload == "mixed" {
			b.sched = mixedSchedule(b.opt.seed, b.length())
		}
		st, err := openStack(filepath.Join(b.dir, fmt.Sprintf("setup-%d", r)), b.nproc)
		if err != nil {
			return nil, err
		}
		b.st = st
		// Set-up r fits training set r: the same work on distinct data.
		rec := b.fitOp(ctx, servedName, r, "omp")
		if rec.err != nil {
			return nil, fmt.Errorf("set-up fit: %w", rec.err)
		}
		rel, bad, err := b.scoreFit(ctx, servedName, rec.status.Result.Model.Version)
		if err == nil {
			err = bad
		}
		if err != nil {
			return nil, fmt.Errorf("set-up fit: %w", err)
		}
		b.setupRelErr = append(b.setupRelErr, rel)
		ph := &phase{}
		b.closedPredicts(ctx, ph, 0, warmPredicts)
		b.closedYields(ctx, ph, 0, 1)
		err = b.scrapeOp(ctx)
		for _, p := range ph.predicts {
			err = errors.Join(err, p.err)
		}
		for _, y := range ph.yields {
			err = errors.Join(err, y.err)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up warm-up: %w", err)
		}
		runtime.GC()
		times = append(times, time.Since(t0))
	}
	return times, nil
}

// runPhases runs the workload's timed phase in its rounds, each round
// followed by the matching slice of the probe. It verifies every op and
// adds the counts to res.
func (b *bench) runPhases(ctx context.Context, res *result) (main, probe *phase, err error) {
	main, probe = &phase{}, &phase{}
	for r := 0; r < b.w.rounds; r++ {
		runtime.GC()
		before := readRuntime()
		b.w.main(b, ctx, main, r)
		main.rt.add(before, readRuntime())
		b.probe(ctx, probe, r)
	}
	for _, ph := range []*phase{main, probe} {
		failed, wrong, err := b.verify(ctx, ph)
		if err != nil {
			return nil, nil, err
		}
		res.Attempted += ph.ops
		res.Failed += failed + wrong
		if wrong > 0 {
			res.Correct = false
		}
	}
	return main, probe, nil
}

// probe runs slice r of the closed-loop probe: the op kinds the workload's
// timed phase lacks, each after a GC.
func (b *bench) probe(ctx context.Context, ph *phase, r int) {
	if !b.w.has[opPredict] {
		runtime.GC()
		lo, hi := share(probePredicts, r, b.w.rounds)
		b.closedPredicts(ctx, ph, lo, hi)
	}
	if !b.w.has[opYield] {
		runtime.GC()
		lo, hi := share(probeYields, r, b.w.rounds)
		b.closedYields(ctx, ph, 1+lo, hi-lo)
	}
}

// pick returns the phase holding the workload's ops of kind k: the timed
// phase when its mix has them, the probe otherwise.
func (b *bench) pick(k opKind, main, probe *phase) *phase {
	if b.w.has[k] {
		return main
	}
	return probe
}

// verify checks every op of ph against its oracle. failed counts errors
// and refusals; wrong counts answers that disagree with the oracle.
func (b *bench) verify(ctx context.Context, ph *phase) (failed, wrong int, err error) {
	served, ok := b.st.reg.Get(servedName)
	if !ok {
		return 0, 0, fmt.Errorf("served model missing from the registry")
	}
	sb, err := served.Basis()
	if err != nil {
		return 0, 0, err
	}
	report := func(format string, args ...any) {
		wrong++
		if wrong <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: WRONG "+format+"\n", args...)
		}
	}
	for _, p := range ph.predicts {
		if p.err != nil {
			failed++
			continue
		}
		if err := checkPredict(served.Model(), sb, b.data.pool[p.point], p.value); err != nil {
			report("predict at pool point %d: %v", p.point, err)
		}
	}
	direct := map[int]float64{}
	for _, y := range ph.yields {
		if y.err != nil {
			failed++
			continue
		}
		want, ok := direct[y.seed]
		if !ok {
			if want, err = directYield(served.Model(), sb, b.data.yieldSeeds[y.seed], yieldN, yieldLow); err != nil {
				return 0, 0, err
			}
			direct[y.seed] = want
		}
		if y.value != want {
			report("yield with seed %d: served %.17g, direct analyzer %.17g", b.data.yieldSeeds[y.seed], y.value, want)
		}
	}
	failed += ph.scrapeKO
	for i := range ph.fits {
		f := &ph.fits[i]
		if f.err != nil || f.status == nil || f.status.State != "done" || f.status.Result == nil {
			failed++
			continue
		}
		rel, bad, err := b.scoreFit(ctx, f.name, f.status.Result.Model.Version)
		if err != nil {
			failed++
			continue
		}
		if bad != nil {
			report("fit %s: %v", f.name, bad)
			continue
		}
		f.relErr = rel
	}
	return failed, wrong, nil
}

// scoreFit reads the fitted model's values on the held-out set through one
// served batch predict, checks each against Model.PredictPoint on the
// stored envelope and returns RMS(served − truth)/RMS(truth). bad reports
// a wrong answer; err a failed request.
func (b *bench) scoreFit(ctx context.Context, name string, version int) (rel float64, bad, err error) {
	entry, ok := b.st.reg.GetVersion(name, version)
	if !ok {
		return 0, fmt.Errorf("%s@v%d not in the registry", name, version), nil
	}
	eb, err := entry.Basis()
	if err != nil {
		return 0, nil, err
	}
	resp, err := b.st.client.PredictInfo(ctx, name, b.data.heldOut)
	if err != nil {
		return 0, nil, err
	}
	if resp.Version != version || len(resp.Values) != len(b.data.heldOut) {
		return 0, fmt.Errorf("held-out predict answered v%d with %d values, want v%d with %d", resp.Version, len(resp.Values), version, len(b.data.heldOut)), nil
	}
	for i, v := range resp.Values {
		if err := checkPredict(entry.Model(), eb, b.data.heldOut[i], v); err != nil {
			return 0, fmt.Errorf("held-out point %d: %w", i, err), nil
		}
	}
	return relErr(resp.Values, b.data.heldTruth), nil, nil
}

// fitRelErr is the mean held-out error of the verified fits of ph, and of
// the set-up fits when those ran the same solver.
func (b *bench) fitRelErr(ph *phase) float64 {
	var xs []float64
	if b.w.solver == "omp" {
		xs = append(xs, b.setupRelErr...)
	}
	for _, f := range ph.fits {
		if f.relErr > 0 {
			xs = append(xs, f.relErr)
		}
	}
	return mean(xs)
}

func fitLatencies(ph *phase) []float64 {
	var xs []float64
	for _, f := range ph.fits {
		if f.err == nil {
			xs = append(xs, f.lat.Seconds())
		}
	}
	return xs
}

func predictLatencies(ph *phase) []float64 {
	xs := make([]float64, 0, len(ph.predicts))
	for _, p := range ph.predicts {
		if p.err == nil {
			xs = append(xs, float64(p.lat)/float64(time.Millisecond))
		}
	}
	return xs
}

func yieldLatencies(ph *phase) []float64 {
	var xs []float64
	for _, y := range ph.yields {
		if y.err == nil {
			xs = append(xs, y.lat.Seconds())
		}
	}
	return xs
}

// endToEnd fills res with the end-to-end metrics.
func (b *bench) endToEnd(res *result, setupTimes []time.Duration, main, probe *phase) error {
	fits := b.pick(opFit, main, probe)
	preds := b.pick(opPredict, main, probe)
	ylds := b.pick(opYield, main, probe)
	pl := predictLatencies(preds)
	m := map[string]float64{
		"setup_s":        median(durs(setupTimes, time.Second)),
		"ok_ratio":       float64(res.Attempted-res.Failed) / float64(res.Attempted),
		"fit_rel_err":    b.fitRelErr(fits),
		"fit_s_p50":      median(fitLatencies(fits)),
		"predict_ms_p50": median(pl),
		"predict_rps":    float64(len(pl)) / preds.predictWall.Seconds(),
		"yield_s_mean":   mean(yieldLatencies(ylds)),
		"cpu_ms_per_op":  float64(main.rt.cpu) / float64(time.Millisecond) / float64(main.ops),
	}
	return report(res, endToEndMetrics, m, true)
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics lists every end-to-end metric, in BENCHMARK.json order.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ok_ratio", "ratio"},
	{"fit_rel_err", "ratio"},
	{"fit_s_p50", "s"},
	{"predict_ms_p50", "ms"},
	{"predict_rps", "1/s"},
	{"yield_s_mean", "s"},
	{"cpu_ms_per_op", "ms"},
}

// report copies the listed metrics from m into res. It fails on a metric
// that was not measured, and, when positive, on one that is not above 0.
func report(res *result, defs []metricDef, m map[string]float64, positive bool) error {
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || (positive && v <= 0) {
			return fmt.Errorf("metric %s = %v: not measured", d.name, v)
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	return nil
}
