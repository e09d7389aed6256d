package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/rsm"
)

// predictRec is one single-point predict.
type predictRec struct {
	point int
	value float64
	lat   time.Duration
	err   error
}

// yieldRec is one yield request.
type yieldRec struct {
	seed  int
	value float64
	lat   time.Duration
	err   error
}

// fitRec is one fit job, from submit to the client seeing it terminal.
type fitRec struct {
	name   string
	lat    time.Duration // submit to terminal, client-observed
	submit time.Duration // SubmitFit round trip
	seen   time.Time     // when the client saw the terminal state
	status *rsm.JobStatus
	err    error
	relErr float64 // set by verify
}

// phase collects the records of one run of a workload (or of its probe).
type phase struct {
	mu       sync.Mutex
	predicts []predictRec
	yields   []yieldRec
	fits     []fitRec
	scrapeKO int             // failed metrics scrapes
	late     []time.Duration // send time minus due time, per op
	ops      int             // ops attempted
	rt       rtDelta
	// predictWall is the wall time the phase spent issuing its predicts.
	predictWall time.Duration
}

func (p *phase) addPredicts(rs []predictRec) {
	p.mu.Lock()
	p.predicts = append(p.predicts, rs...)
	p.ops += len(rs)
	p.mu.Unlock()
}

func (p *phase) addYield(r yieldRec) {
	p.mu.Lock()
	p.yields = append(p.yields, r)
	p.ops++
	p.mu.Unlock()
}

func (p *phase) addFit(r fitRec) {
	p.mu.Lock()
	p.fits = append(p.fits, r)
	p.ops++
	p.mu.Unlock()
}

func (p *phase) addScrape(err error) {
	p.mu.Lock()
	p.ops++
	if err != nil {
		p.scrapeKO++
	}
	p.mu.Unlock()
}

func (p *phase) addLate(d time.Duration) {
	p.mu.Lock()
	p.late = append(p.late, d)
	p.mu.Unlock()
}

// predictOp sends one single-point predict. Latency runs from due.
func (b *bench) predictOp(ctx context.Context, point int, due time.Time) predictRec {
	sp := b.tr.start("rsm.Predict", 0)
	vals, err := b.st.client.Predict(ctx, servedName, [][]float64{b.data.pool[point]})
	b.tr.end(sp)
	r := predictRec{point: point, lat: time.Since(due), err: err}
	if err == nil {
		if len(vals) != 1 {
			r.err = fmt.Errorf("predict returned %d values for 1 point", len(vals))
		} else {
			r.value = vals[0]
		}
	}
	return r
}

// yieldOp sends one yield request with the seed-th yield seed.
func (b *bench) yieldOp(ctx context.Context, seed int, due time.Time) yieldRec {
	low := yieldLow
	req := rsm.YieldRequest{Low: &low, N: yieldN, Seed: b.data.yieldSeeds[seed]}
	sp := b.tr.start("rsm.Yield", 0)
	resp, err := b.st.client.Yield(ctx, servedName, req)
	b.tr.end(sp)
	r := yieldRec{seed: seed, lat: time.Since(due), err: err}
	if err == nil {
		if resp.Yield == nil {
			r.err = fmt.Errorf("yield response carries no yield")
		} else {
			r.value = *resp.Yield
		}
	}
	return r
}

// fitRequest is the fit job for training set t.
func (b *bench) fitRequest(name string, t int, solver string) rsm.FitRequest {
	ts := b.data.train[t]
	return rsm.FitRequest{
		Name: name, Solver: solver, Degree: 2, Folds: folds, MaxLambda: maxLambda,
		Points: ts.points, Values: ts.values,
	}
}

// fitOp submits a fit of training set t and waits for it on the job's
// event stream (SSE), so the wait is not quantized by a poll interval.
func (b *bench) fitOp(ctx context.Context, name string, t int, solver string) fitRec {
	r := fitRec{name: name}
	req := b.fitRequest(name, t, solver)
	op := b.tr.start("op.fit", 0)
	defer b.tr.end(op)
	start := time.Now()
	sp := b.tr.start("rsm.SubmitFit", op)
	id, err := b.st.client.SubmitFit(ctx, req)
	b.tr.end(sp)
	r.submit = time.Since(start)
	if err != nil {
		r.err = err
		r.lat = time.Since(start)
		return r
	}
	sp = b.tr.start("rsm.WatchJob", op)
	r.status, r.err = b.st.client.WatchJob(ctx, id, nil)
	b.tr.end(sp)
	r.seen = time.Now()
	r.lat = r.seen.Sub(start)
	return r
}

// scrapeOp reads /metrics through the client.
func (b *bench) scrapeOp(ctx context.Context) error {
	sp := b.tr.start("rsm.Metrics", 0)
	m, err := b.st.client.Metrics(ctx)
	b.tr.end(sp)
	if err == nil {
		if _, ok := m["journal"]; !ok {
			err = fmt.Errorf("metrics snapshot has no journal block")
		}
	}
	return err
}

// closedPredicts runs predict ops lo…hi-1 from nproc client goroutines,
// each sending its next request when the previous one returns. Client c
// sends ops lo+c, lo+c+nproc, …; op j reads pool point j mod poolSize.
func (b *bench) closedPredicts(ctx context.Context, ph *phase, lo, hi int) {
	clients := b.nproc
	var wg sync.WaitGroup
	start := time.Now()
	defer func() { ph.predictWall += time.Since(start) }()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			recs := make([]predictRec, 0, (hi-lo)/clients+1)
			late := make([]time.Duration, 0, (hi-lo)/clients+1)
			due := time.Now()
			for j := lo + c; j < hi; j += clients {
				late = append(late, time.Since(due))
				recs = append(recs, b.predictOp(ctx, j%poolSize, due))
				due = time.Now()
			}
			ph.addPredicts(recs)
			ph.mu.Lock()
			ph.late = append(ph.late, late...)
			ph.mu.Unlock()
		}(c)
	}
	wg.Wait()
}

// closedYields runs n yields back to back from one client, starting at
// yield seed first.
func (b *bench) closedYields(ctx context.Context, ph *phase, first, n int) {
	for i := 0; i < n; i++ {
		ph.addLate(0)
		ph.addYield(b.yieldOp(ctx, first+i, time.Now()))
	}
}

// closedFits runs fits lo…hi-1 back to back from one client. Fit i fits
// training set setups+i with the workload's solver and publishes it under
// its own model name.
func (b *bench) closedFits(ctx context.Context, ph *phase, lo, hi int) {
	for i := lo; i < hi; i++ {
		ph.addLate(0)
		ph.addFit(b.fitOp(ctx, fmt.Sprintf("fitcv-%s-%03d", b.tag, i), setups+i, b.w.solver))
	}
}

// runMixed replays the open-loop schedule with nproc workers taking ops in
// due order. Each op's latency runs from its due time, so a stall shows as
// latency on every op queued behind it.
func (b *bench) runMixed(ctx context.Context, ph *phase) {
	type fitState struct {
		id     string
		due    time.Time
		start  time.Time
		submit time.Duration
		done   bool
	}
	var (
		mu   sync.Mutex
		fits = make(map[int]*fitState)
		next atomic.Int64
		wg   sync.WaitGroup
	)
	_, nFits := mixedCounts(b.length())
	start := time.Now()
	for w := 0; w < b.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var preds []predictRec
			for {
				i := int(next.Add(1)) - 1
				if i >= len(b.sched) {
					break
				}
				op := b.sched[i]
				if op.kind == opPoll {
					mu.Lock()
					fs := fits[op.arg]
					skip := fs == nil || fs.done || fs.id == ""
					mu.Unlock()
					if skip {
						continue
					}
				}
				due := start.Add(op.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				late := time.Since(due)
				switch op.kind {
				case opPredict:
					ph.addLate(late)
					preds = append(preds, b.predictOp(ctx, op.arg, due))
				case opYield:
					ph.addLate(late)
					ph.addYield(b.yieldOp(ctx, 1+op.arg, due))
				case opMetrics:
					ph.addLate(late)
					ph.addScrape(b.scrapeOp(ctx))
				case opFit:
					ph.addLate(late)
					fs := &fitState{due: due, start: time.Now()}
					mu.Lock()
					fits[op.arg] = fs
					mu.Unlock()
					name := fmt.Sprintf("mixed-%s-%03d", b.tag, op.arg)
					sp := b.tr.start("rsm.SubmitFit", 0)
					id, err := b.st.client.SubmitFit(ctx, b.fitRequest(name, setups+op.arg, "lar"))
					b.tr.end(sp)
					mu.Lock()
					fs.id, fs.submit = id, time.Since(fs.start)
					if err != nil {
						fs.done = true
					}
					mu.Unlock()
					if err != nil {
						ph.addFit(fitRec{name: name, lat: time.Since(due), submit: fs.submit, err: err})
					}
				case opPoll:
					mu.Lock()
					fs := fits[op.arg]
					id := fs.id
					mu.Unlock()
					sp := b.tr.start("rsm.Job", 0)
					st, err := b.st.client.Job(ctx, id)
					b.tr.end(sp)
					if err == nil && !terminal(st.State) {
						continue
					}
					seen := time.Now()
					mu.Lock()
					if fs.done {
						mu.Unlock()
						continue
					}
					fs.done = true
					mu.Unlock()
					name := fmt.Sprintf("mixed-%s-%03d", b.tag, op.arg)
					r := fitRec{name: name, lat: seen.Sub(fs.due), submit: fs.submit, seen: seen, status: st, err: err}
					if err == nil && st.State != rsm.JobDone {
						r.err = fmt.Errorf("fit job %s ended %s: %s", id, st.State, st.Error)
					}
					ph.addFit(r)
				}
			}
			ph.addPredicts(preds)
		}()
	}
	wg.Wait()
	ph.predictWall = time.Since(start)
	// A fit still live after its last scheduled poll is a miss.
	for k := 0; k < nFits; k++ {
		if fs := fits[k]; fs == nil || !fs.done {
			ph.addFit(fitRec{name: fmt.Sprintf("mixed-%s-%03d", b.tag, k), err: fmt.Errorf("fit %d not terminal by its last poll", k)})
		}
	}
}

func terminal(state string) bool {
	switch state {
	case rsm.JobDone, rsm.JobFailed, rsm.JobCanceled, rsm.JobTimedOut:
		return true
	}
	return false
}
