package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"time"

	"repro/internal/basis"
	"repro/internal/core"
	"repro/internal/rng"
)

// Problem shape: the K≪M regime of internal/core's fit benchmark — a
// degree-2 Hermite dictionary over 99 standard-normal variables
// (M = 5050) sampled at K = 500 points.
const (
	dim         = 99
	samples     = 500
	folds       = 5
	maxLambda   = 30
	truthTerms  = 12
	noiseSigma  = 0.01
	heldOutSize = 2000
	// poolSize distinct single points are cycled by the predict streams;
	// the server keeps no per-point state, so a pool is as good as a stream.
	// The ladder's batch rung predicts the whole pool at once.
	poolSize = 5000
	// yieldN is the virtual-sample count of every yield request.
	yieldN = 5000
	// yieldLow is the lower spec limit of every yield request. The truth
	// has unit RMS, so roughly five in six samples pass.
	yieldLow = -1.0
)

// trainSet is one seeded training sample for a fit job.
type trainSet struct {
	points [][]float64
	values []float64
}

// dataset holds every input a run uses, drawn in sample order from the
// seed alone: the ground truth, the training sets of the fit jobs, the
// held-out points that score them, the predict pool and the yield seeds.
type dataset struct {
	basis     *basis.Basis
	truth     *core.Model
	train     []trainSet
	heldOut   [][]float64
	heldTruth []float64
	pool      [][]float64
	// yieldSeeds seed the yield requests, one per request in issue order.
	yieldSeeds []int64
	// checksum is the SHA-256 of every generated number, in draw order.
	checksum string
}

// generate builds a run's inputs. Each purpose draws from its own child
// stream, split from the seed in a fixed order, so the number of training
// sets does not move the predict pool or the held-out set.
func generate(seed int64, nTrain, nYield int) *dataset {
	root := rng.New(seed)
	truthSrc, heldSrc, trainSrc, poolSrc, yieldSrc := root.Split(), root.Split(), root.Split(), root.Split(), root.Split()

	d := &dataset{basis: basis.Quadratic(dim)}
	d.truth = sparseTruth(truthSrc, d.basis.Size())
	d.heldOut = normalPoints(heldSrc, heldOutSize)
	d.heldTruth = make([]float64, heldOutSize)
	for i, p := range d.heldOut {
		d.heldTruth[i] = d.truth.PredictPoint(d.basis, p)
	}
	d.train = make([]trainSet, nTrain)
	for t := range d.train {
		ts := trainSet{points: make([][]float64, samples), values: make([]float64, samples)}
		for k := range ts.points {
			ts.points[k] = trainSrc.NormVec(nil, dim)
			ts.values[k] = d.truth.PredictPoint(d.basis, ts.points[k]) + noiseSigma*trainSrc.Norm()
		}
		d.train[t] = ts
	}
	d.pool = normalPoints(poolSrc, poolSize)
	d.yieldSeeds = make([]int64, nYield)
	for i := range d.yieldSeeds {
		d.yieldSeeds[i] = 1 + int64(yieldSrc.Intn(1<<30))
	}
	d.checksum = d.sum()
	return d
}

// sparseTruth draws a truthTerms-term model over the dictionary. Each
// coefficient's magnitude lies in [0.5, 1.5) before the model is scaled to
// unit RMS under the Gaussian measure (the basis is orthonormal), so no
// term hides below the noise and the fit error is set by the noise alone.
func sparseTruth(src *rng.Source, m int) *core.Model {
	support := src.Perm(m)[:truthTerms]
	coef := make([]float64, truthTerms)
	norm := 0.0
	for i := range coef {
		c := 0.5 + src.Float64()
		if src.Intn(2) == 0 {
			c = -c
		}
		coef[i] = c
		norm += c * c
	}
	norm = math.Sqrt(norm)
	for i := range coef {
		coef[i] /= norm
	}
	return &core.Model{M: m, Support: support, Coef: coef}
}

func normalPoints(src *rng.Source, n int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = src.NormVec(nil, dim)
	}
	return pts
}

// sum hashes every generated number in draw order.
func (d *dataset) sum() string {
	h := sha256.New()
	for _, idx := range d.truth.Support {
		putInt(h, int64(idx))
	}
	putFloats(h, d.truth.Coef)
	for _, p := range d.heldOut {
		putFloats(h, p)
	}
	for _, ts := range d.train {
		for _, p := range ts.points {
			putFloats(h, p)
		}
		putFloats(h, ts.values)
	}
	for _, p := range d.pool {
		putFloats(h, p)
	}
	for _, s := range d.yieldSeeds {
		putInt(h, s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func putFloats(h hash.Hash, xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

func putInt(h hash.Hash, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

// opKind names the operations a workload issues.
type opKind int

const (
	opPredict opKind = iota
	opYield
	opFit
	opMetrics
	// opPoll reads the status of the fit named by arg; polls of a fit
	// already seen terminal are dropped without being sent.
	opPoll
)

// schedOp is one entry of the mixed workload's open-loop schedule: what to
// send and when it is due, relative to the start of the timed phase.
type schedOp struct {
	due  time.Duration
	kind opKind
	// arg indexes the pool point (predict), the yield seed (yield) or the
	// fit (fit, poll).
	arg int
}

// Mixed-workload rates and periods.
const (
	mixedPredictRate = 250.0 // single-point predicts per second, Poisson
	mixedFitEvery    = 6 * time.Second
	mixedScrapeEvery = time.Second
	mixedPollEvery   = 20 * time.Millisecond
	// mixedPollTail bounds how long after a fit's due time its status is
	// polled; a fit not terminal by then counts as failed.
	mixedPollTail = 60 * time.Second
)

// mixedYieldOffsets places the yields of each fit cycle, relative to the
// cycle's fit: the first runs alongside the fit, the others after it has
// finished (a fit takes about 1 s), so every fit shares the cores with
// exactly one yield however long it takes.
var mixedYieldOffsets = []time.Duration{
	250 * time.Millisecond, 2250 * time.Millisecond, 3250 * time.Millisecond,
	4250 * time.Millisecond, 5250 * time.Millisecond,
}

// mixedFitDues returns the due times of a mixed schedule's fits.
func mixedFitDues(length time.Duration) []time.Duration {
	var dues []time.Duration
	for due := mixedFitEvery / 24; due < length; due += mixedFitEvery {
		dues = append(dues, due)
	}
	return dues
}

// mixedYieldDues returns the due times of a mixed schedule's yields.
func mixedYieldDues(length time.Duration) []time.Duration {
	var dues []time.Duration
	for _, fit := range mixedFitDues(length) {
		for _, off := range mixedYieldOffsets {
			if fit+off < length {
				dues = append(dues, fit+off)
			}
		}
	}
	return dues
}

// mixedCounts returns how many yields and fits a mixed schedule of the
// given length issues.
func mixedCounts(length time.Duration) (yields, fits int) {
	return len(mixedYieldDues(length)), len(mixedFitDues(length))
}

// mixedSchedule lays out the open-loop schedule over length: Poisson
// single-point predicts at mixedPredictRate, a LAR fit every
// mixedFitEvery whose completion is read by status polls every
// mixedPollEvery, the yields of mixedYieldOffsets around each fit, and a
// metrics scrape every mixedScrapeEvery. Only the predict arrivals are
// random.
func mixedSchedule(seed int64, length time.Duration) []schedOp {
	src := rng.New(seed ^ 0x5eed)
	var ops []schedOp
	t := 0.0
	for {
		t += -math.Log(1-src.Float64()) / mixedPredictRate
		due := time.Duration(t * float64(time.Second))
		if due >= length {
			break
		}
		ops = append(ops, schedOp{due: due, kind: opPredict, arg: src.Intn(poolSize)})
	}
	for k, due := range mixedYieldDues(length) {
		ops = append(ops, schedOp{due: due, kind: opYield, arg: k})
	}
	for k, due := range mixedFitDues(length) {
		ops = append(ops, schedOp{due: due, kind: opFit, arg: k})
		for p := due + mixedPollEvery; p < due+mixedPollTail; p += mixedPollEvery {
			ops = append(ops, schedOp{due: p, kind: opPoll, arg: k})
		}
	}
	for due := mixedScrapeEvery / 10; due < length; due += mixedScrapeEvery {
		ops = append(ops, schedOp{due: due, kind: opMetrics})
	}
	sort.SliceStable(ops, func(a, b int) bool { return ops[a].due < ops[b].due })
	return ops
}

// scheduleSum hashes a schedule for the run's checksum line.
func scheduleSum(ops []schedOp) string {
	h := sha256.New()
	for _, op := range ops {
		putInt(h, int64(op.due))
		putInt(h, int64(op.kind))
		putInt(h, int64(op.arg))
	}
	return hex.EncodeToString(h.Sum(nil))
}
