package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// envHeader stamps a run with the host and build it ran on, so that a
// change of host is never read as a regression.
type envHeader struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// GitCommit is the VCS revision stamped at build time, or "unknown"
	// when the sources were built outside a repository.
	GitCommit string `json:"git_commit"`
	// SourceSHA256 hashes every .go, go.mod and go.sum file under the
	// working directory, identifying the sources where no VCS is present.
	SourceSHA256 string `json:"source_sha256"`
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        bool   `json:"trace"`
}

func newEnvHeader(opt options) envHeader {
	return envHeader{
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		CPUModel:     cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		GitCommit:    gitCommit(),
		SourceSHA256: sourceDigest("."),
		Workload:     opt.workload,
		Seed:         opt.seed,
		Seconds:      opt.seconds,
		Trace:        opt.trace,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gitCommit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// sourceDigest hashes the Go sources under root in lexical path order,
// skipping hidden directories (build outputs, VCS metadata).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); !strings.HasSuffix(n, ".go") && n != "go.mod" && n != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// rtSnap is a point-in-time reading of process CPU and Go runtime
// counters; two of them bracket a timed phase.
type rtSnap struct {
	at       time.Time
	cpu      time.Duration // user+sys from getrusage
	gcCPU    float64       // /cpu/classes/gc/total:cpu-seconds
	totalCPU float64       // /cpu/classes/total:cpu-seconds
	allocs   uint64        // /gc/heap/allocs:bytes
	sched    metrics.Float64Histogram
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/sched/latencies:seconds",
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	snap := rtSnap{at: time.Now(), cpu: processCPU()}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		snap.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		snap.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		snap.allocs = s[2].Value.Uint64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[3].Value.Float64Histogram()
		snap.sched = metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: append([]float64(nil), h.Buckets...),
		}
	}
	return snap
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtDelta accumulates what changed across one or more bracketed
// intervals: wall and process CPU time, GC and total CPU as the runtime
// accounts them, bytes allocated, and the scheduling-latency histogram.
type rtDelta struct {
	wall, cpu       time.Duration
	gcCPU, totalCPU float64
	allocBytes      uint64
	sched           metrics.Float64Histogram
}

// add accumulates the interval from a to b.
func (d *rtDelta) add(a, b rtSnap) {
	d.wall += b.at.Sub(a.at)
	d.cpu += b.cpu - a.cpu
	d.gcCPU += b.gcCPU - a.gcCPU
	d.totalCPU += b.totalCPU - a.totalCPU
	d.allocBytes += b.allocs - a.allocs
	if len(a.sched.Counts) != len(b.sched.Counts) {
		return
	}
	if d.sched.Counts == nil {
		d.sched.Buckets = b.sched.Buckets
		d.sched.Counts = make([]uint64, len(b.sched.Counts))
	}
	for i := range d.sched.Counts {
		d.sched.Counts[i] += b.sched.Counts[i] - a.sched.Counts[i]
	}
}

// gcFraction is GC CPU over the total CPU available to the runtime.
func (d *rtDelta) gcFraction() float64 {
	if d.totalCPU <= 0 {
		return math.NaN()
	}
	return d.gcCPU / d.totalCPU
}

// schedP99Milli is the p99 goroutine scheduling latency in ms.
func (d *rtDelta) schedP99Milli() float64 { return 1e3 * histQuantile(d.sched, 0.99) }

// histQuantile interpolates the q-quantile of a runtime histogram.
func histQuantile(h metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return math.NaN()
	}
	target := q * float64(total)
	var cum float64
	for i, c := range h.Counts {
		if c > 0 && cum+float64(c) >= target {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	return h.Buckets[len(h.Buckets)-1]
}
