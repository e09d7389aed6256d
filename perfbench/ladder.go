package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/basis"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/yield"
)

// Ladder repetition counts: enough calls per rung for a steady median.
const (
	ladderPredicts = 2000 // single-point predicts per wire rung
	ladderCoreReps = 1000 // compiled evaluations per timed batch
	ladderBatches  = 20   // timed batches of compiled evaluations
	ladderSweeps   = 30
	ladderDesigns  = 3
	ladderFitPaths = 3
	ladderCVs      = 2
	ladderPuts     = 5
	ladderYields   = 3
	ladderScrapes  = 20
)

// perLayer fills res with the per-layer metrics: the traced replay's
// layer counters, the tracing overhead (the traced timed phase against the
// untraced one, main) and the ladder.
func (b *bench) perLayer(ctx context.Context, res *result, main, tmain, tprobe *phase) error {
	m := map[string]float64{}

	// The primary latency is the p50 of the workload's dominant op.
	primary := func(ph *phase) float64 {
		if b.opt.workload == "fit-cv" {
			return median(fitLatencies(ph))
		}
		return median(predictLatencies(ph))
	}
	untraced, traced := primary(main), primary(tmain)
	m["trace.overhead_pct"] = 100 * (traced - untraced) / untraced

	fits := b.pick(opFit, tmain, tprobe)
	var queue, runT, submit, lag []float64
	for _, f := range fits.fits {
		if f.err != nil || f.status == nil || f.status.Started == nil || f.status.Finished == nil {
			continue
		}
		queue = append(queue, ms(f.status.Started.Sub(f.status.Submitted)))
		runT = append(runT, ms(f.status.Finished.Sub(*f.status.Started)))
		submit = append(submit, ms(f.submit))
		lag = append(lag, ms(f.seen.Round(0).Sub(*f.status.Finished)))
	}
	m["server.fit_queue_ms"] = median(queue)
	m["server.fit_run_ms"] = median(runT)
	m["rsm.fit_submit_ms"] = median(submit)
	m["rsm.watch_lag_ms"] = median(lag)
	p99, err := percentile(predictLatencies(b.pick(opPredict, tmain, tprobe)), 0.99)
	if err != nil {
		return fmt.Errorf("rsm.predict_ms_p99: %w", err)
	}
	m["rsm.predict_ms_p99"] = p99
	late := append(append([]float64(nil), durs(tmain.late, time.Millisecond)...), durs(tprobe.late, time.Millisecond)...)
	if m["gen.late_ms_p99"], err = percentile(late, 0.99); err != nil {
		return fmt.Errorf("gen.late_ms_p99: %w", err)
	}
	m["go.gc_cpu_fraction"] = tmain.rt.gcFraction()
	m["go.sched_latency_ms_p99"] = tmain.rt.schedP99Milli()
	m["go.alloc_mb_per_op"] = float64(tmain.rt.allocBytes) / 1e6 / float64(tmain.ops)

	if err := b.ladder(ctx, m); err != nil {
		return err
	}
	m["server.fit_outside_core_ms"] = m["server.fit_run_ms"] - m["core.cv_ms"] - m["basis.design_ms"]
	m["rsm.self_us"] = m["rsm.predict_us"] - m["http.predict_us"]
	m["http.self_us"] = m["http.predict_us"] - m["server.predict_handler_us"]
	m["server.predict_self_us"] = m["server.predict_handler_us"] - m["core.predict_us"]
	m["trace.spans"] = float64(b.tr.mark())

	return report(res, perLayerMetrics, m, false)
}

// perLayerMetrics lists every per-layer metric, in BENCHMARK.json order.
var perLayerMetrics = []metricDef{
	{"basis.design_ms", "ms"},
	{"basis.colmajor_ms", "ms"},
	{"basis.sweep_ms", "ms"},
	{"basis.sweep_gbps", "GB/s"},
	{"core.fitpath_ms", "ms"},
	{"core.cv_ms", "ms"},
	{"core.cv_alloc_mb", "MB"},
	{"core.path_steps", "count"},
	{"core.predict_us", "us"},
	{"core.predict_batch_ns_per_point", "ns"},
	{"yield.us_per_sample", "us"},
	{"registry.put_ms", "ms"},
	{"registry.checkpoint_ms", "ms"},
	{"journal.fsync_ms_mean", "ms"},
	{"server.fit_queue_ms", "ms"},
	{"server.fit_run_ms", "ms"},
	{"server.fit_outside_core_ms", "ms"},
	{"server.predict_handler_us", "us"},
	{"server.predict_alloc_kb", "KB"},
	{"server.predict_self_us", "us"},
	{"server.yield_handler_ms", "ms"},
	{"http.predict_us", "us"},
	{"http.self_us", "us"},
	{"rsm.predict_us", "us"},
	{"rsm.self_us", "us"},
	{"rsm.fit_submit_ms", "ms"},
	{"rsm.watch_lag_ms", "ms"},
	{"rsm.predict_ms_p99", "ms"},
	{"obs.metrics_scrape_ms", "ms"},
	{"obs.metrics_bytes", "bytes"},
	{"go.gc_cpu_fraction", "ratio"},
	{"go.sched_latency_ms_p99", "ms"},
	{"go.alloc_mb_per_op", "MB"},
	{"gen.late_ms_p99", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timed runs fn n times, each call inside its own span, and returns the
// median per-call duration.
func (b *bench) timed(name string, n int, fn func(i int) error) (time.Duration, error) {
	from := b.tr.mark()
	for i := 0; i < n; i++ {
		sp := b.tr.start(name, 0)
		err := fn(i)
		b.tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return medianDur(b.tr.since(from, name)), nil
}

func medianDur(ds []time.Duration) time.Duration {
	return time.Duration(median(durs(ds, time.Nanosecond)))
}

// ladder walks sample inputs of the workload down one public entry point
// per layer, from the rsm client to the kernels, with one span per call.
// The gap between two adjacent rungs is the self time of the layer
// between them.
func (b *bench) ladder(ctx context.Context, m map[string]float64) error {
	served, ok := b.st.reg.Get(servedName)
	if !ok {
		return fmt.Errorf("served model missing")
	}
	sb, err := served.Basis()
	if err != nil {
		return err
	}
	model := served.Model()
	point := func(i int) []float64 { return b.data.pool[i%poolSize] }
	bodies := make([][]byte, ladderPredicts)
	for i := range bodies {
		if bodies[i], err = json.Marshal(server.PredictRequest{Points: [][]float64{point(i)}}); err != nil {
			return err
		}
	}
	path := "/v1/models/" + servedName + "/predict"
	check := func(i int, v float64) error { return checkPredict(model, sb, point(i), v) }

	// rsm client rung.
	d, err := b.timed("ladder.rsm.Predict", ladderPredicts, func(i int) error {
		vals, err := b.st.client.Predict(ctx, servedName, [][]float64{point(i)})
		if err != nil {
			return err
		}
		return check(i, vals[0])
	})
	if err != nil {
		return err
	}
	m["rsm.predict_us"] = us(d)

	// Raw net/http rung: the same bytes, the same transport, no client
	// library and no response decoding.
	d, err = b.timed("ladder.http.Post", ladderPredicts, func(i int) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.st.url+path, bytes.NewReader(bodies[i]))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := b.st.hc.Do(req)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		return err
	})
	if err != nil {
		return err
	}
	m["http.predict_us"] = us(d)

	// In-process handler rung: Server.ServeHTTP on a recorder. Requests
	// and recorders are built up front so the allocation count is the
	// handler's.
	reqs := make([]*http.Request, ladderPredicts)
	recs := make([]*httptest.ResponseRecorder, ladderPredicts)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, path, bytes.NewReader(bodies[i]))
		reqs[i].Header.Set("Content-Type", "application/json")
		recs[i] = httptest.NewRecorder()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	d, err = b.timed("ladder.server.ServeHTTP", ladderPredicts, func(i int) error {
		b.st.srv.ServeHTTP(recs[i], reqs[i])
		return nil
	})
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}
	for i, rec := range recs {
		var resp server.PredictResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil || len(resp.Values) != 1 {
			return fmt.Errorf("handler rung: HTTP %d %s", rec.Code, rec.Body.String())
		}
		if err := check(i, resp.Values[0]); err != nil {
			return fmt.Errorf("handler rung: %w", err)
		}
	}
	m["server.predict_handler_us"] = us(d)
	m["server.predict_alloc_kb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e3 / ladderPredicts

	// Compiled evaluation rung, timed in batches: one call is too short to
	// time alone.
	cp, err := model.Compile(sb)
	if err != nil {
		return err
	}
	dst := make([]float64, 1)
	one := make([][][]float64, ladderCoreReps)
	for i := range one {
		one[i] = [][]float64{point(i)}
	}
	from := b.tr.mark()
	for k := 0; k < ladderBatches; k++ {
		sp := b.tr.start("ladder.core.CompiledPredictor.Predict", 0)
		for i := range one {
			cp.Predict(dst, one[i], 0)
		}
		b.tr.endReps(sp, ladderCoreReps)
	}
	m["core.predict_us"] = us(medianDur(b.tr.since(from, "ladder.core.CompiledPredictor.Predict")))

	batch := make([]float64, poolSize)
	d, err = b.timed("ladder.core.CompiledPredictor.PredictBatch", 5, func(int) error {
		_, err := cp.Predict(batch, b.data.pool, 0)
		return err
	})
	if err != nil {
		return err
	}
	m["core.predict_batch_ns_per_point"] = float64(d) / poolSize

	// Yield: the analyzer directly, then through the handler.
	low := yieldLow
	seed := b.data.yieldSeeds[0]
	d, err = b.timed("ladder.yield.Analyzer.Yield", ladderYields, func(int) error {
		an, err := yield.NewAnalyzer(sb, map[string]*core.Model{"m": model})
		if err != nil {
			return err
		}
		_, err = an.Yield(rng.New(seed), yieldN, map[string]yield.Spec{"m": {Low: low, High: math.Inf(1)}})
		return err
	})
	if err != nil {
		return err
	}
	m["yield.us_per_sample"] = us(d) / yieldN
	ybody, err := json.Marshal(server.YieldRequest{Low: &low, N: yieldN, Seed: seed})
	if err != nil {
		return err
	}
	d, err = b.timed("ladder.server.ServeHTTP.yield", ladderYields, func(int) error {
		rec := httptest.NewRecorder()
		b.st.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/models/"+servedName+"/yield", bytes.NewReader(ybody)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("HTTP %d", rec.Code)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["server.yield_handler_ms"] = ms(d)

	if err := b.fitLadder(ctx, m, sb); err != nil {
		return err
	}

	// obs: the /metrics scrape through the client, and its size raw.
	d, err = b.timed("ladder.rsm.Metrics", ladderScrapes, func(int) error {
		_, err := b.st.client.Metrics(ctx)
		return err
	})
	if err != nil {
		return err
	}
	m["obs.metrics_scrape_ms"] = ms(d)
	resp, err := b.st.hc.Get(b.st.url + "/metrics")
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	m["obs.metrics_bytes"] = float64(len(raw))
	var snap struct {
		Journal struct {
			Fsync struct {
				Count float64 `json:"count"`
				Sum   float64 `json:"sum"`
			} `json:"fsync_seconds"`
		} `json:"journal"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("decode /metrics: %w", err)
	}
	if snap.Journal.Fsync.Count == 0 {
		return fmt.Errorf("journal recorded no fsyncs")
	}
	m["journal.fsync_ms_mean"] = 1e3 * snap.Journal.Fsync.Sum / snap.Journal.Fsync.Count
	return nil
}

// fitLadder times the fit path's layers on the first workload training
// set with the workload's solver and fit-job configuration.
func (b *bench) fitLadder(ctx context.Context, m map[string]float64, sb *basis.Basis) error {
	ts := b.data.train[setups]
	fitter, err := core.SolverByName(b.w.solver)
	if err != nil {
		return err
	}
	var design basis.Design
	d, err := b.timed("ladder.basis.AutoDesign", ladderDesigns, func(int) error {
		design = basis.AutoDesign(sb, ts.points)
		return nil
	})
	if err != nil {
		return err
	}
	m["basis.design_ms"] = ms(d)
	var cm *basis.ColMajor
	if d, err = b.timed("ladder.basis.NewColMajor", ladderDesigns, func(int) error {
		cm = basis.NewColMajor(design)
		return nil
	}); err != nil {
		return err
	}
	m["basis.colmajor_ms"] = ms(d)
	sweep := make([]float64, cm.Cols())
	if d, err = b.timed("ladder.basis.ColMajor.MulTransVec", ladderSweeps, func(int) error {
		cm.MulTransVec(sweep, ts.values)
		return nil
	}); err != nil {
		return err
	}
	m["basis.sweep_ms"] = ms(d)
	// Computed, not measured, traffic: one pass reads the K×M design.
	m["basis.sweep_gbps"] = 8 * float64(cm.Rows()) * float64(cm.Cols()) / d.Seconds() / 1e9

	if d, err = b.timed("ladder.core.FitPathContext", ladderFitPaths, func(int) error {
		_, err := core.FitPathContext(ctx, fitter, design, ts.values, maxLambda)
		return err
	}); err != nil {
		return err
	}
	m["core.fitpath_ms"] = ms(d)

	var (
		steps []int
		alloc []float64
		cv    *core.CVResult
		plan  *core.CheckpointPlan
	)
	if d, err = b.timed("ladder.core.CrossValidateCtx", ladderCVs, func(int) error {
		n := 0
		plan = &core.CheckpointPlan{}
		cctx := core.WithCheckpointPlan(core.WithFitObserver(ctx, func(core.FitEvent) { n++ }), plan)
		var a, z runtime.MemStats
		runtime.ReadMemStats(&a)
		var err error
		cv, err = core.CrossValidateCtx(cctx, fitter, design, ts.values, folds, maxLambda)
		runtime.ReadMemStats(&z)
		steps = append(steps, n)
		alloc = append(alloc, float64(z.TotalAlloc-a.TotalAlloc)/1e6)
		return err
	}); err != nil {
		return err
	}
	for _, s := range steps[1:] {
		if s != steps[0] {
			return fmt.Errorf("cross-validation path steps differ between identical runs: %v", steps)
		}
	}
	if plan.CK == nil {
		return fmt.Errorf("cross-validation captured no checkpoint")
	}
	m["core.cv_ms"] = ms(d)
	m["core.path_steps"] = float64(steps[0])
	m["core.cv_alloc_mb"] = median(alloc)

	lreg, err := registry.OpenWith(filepath.Join(b.dir, "ladder-store"), discardLogger())
	if err != nil {
		return err
	}
	env := &core.Envelope{
		Model: cv.Model,
		Basis: sb.Desc,
		Prov: core.Provenance{Solver: fitter.Name(), Lambda: cv.BestLambda, CVError: cv.ErrCurve[cv.BestLambda-1],
			Folds: folds, Samples: samples, Metric: "f"},
	}
	var entry *registry.Entry
	if d, err = b.timed("ladder.registry.Put", ladderPuts, func(int) error {
		entry, err = lreg.Put("ladder", env)
		return err
	}); err != nil {
		return err
	}
	m["registry.put_ms"] = ms(d)
	ck := &registry.Checkpoint{
		Version: registry.CheckpointFormatVersion, Name: "ladder", ModelVersion: entry.Version,
		Solver: plan.CK.Solver, Fitter: b.w.solver, Folds: folds, MaxLambda: maxLambda, Metric: "f",
		Points: ts.points, Values: ts.values, State: plan.CK, CreatedAt: time.Now().UTC(),
	}
	if d, err = b.timed("ladder.registry.PutCheckpoint", ladderPuts, func(int) error {
		return lreg.PutCheckpoint(ck)
	}); err != nil {
		return err
	}
	m["registry.checkpoint_ms"] = ms(d)
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
