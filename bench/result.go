package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one metric; BENCHMARK.json lists the same names, units
// and bounds (TestMetricNamesMatchBenchmarkJSON keeps the two in step).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"goodput_mbit_s", "Mbit/s", "higher", 0.25},
	{"op_latency_p50_us", "us", "lower", 0.25},
	{"op_latency_p99_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_bytes_per_op", "B", "lower", 0.02},
	{"wire_overhead_ratio", "ratio", "lower", 0.01},
	{"completed_share", "ratio", "higher", 0.002},
}

// env is the machine-readable description of where and how a run was made.
type env struct {
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Quick      bool   `json:"quick"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Engine     string `json:"udpio_engine"`
	SockBuf    int    `json:"so_rcvbuf_granted"`
	Commit     string `json:"commit"`
	Network    string `json:"network"`
}

func readEnv(o options) env {
	e := env{
		Seed:       o.seed,
		Seconds:    o.seconds,
		Quick:      o.quick,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Engine:     grantedEngine(),
		SockBuf:    grantedSockBuf(),
		Commit:     "unknown",
		Network:    "loopback, one process",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	// The driver's checkout is not a git repository; "unknown" is the
	// honest answer there.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// result is one workload run: per-repetition values, their medians and
// quartiles, and the oracle's verdict.
type result struct {
	Workload  string               `json:"workload"`
	Env       env                  `json:"env"`
	Traced    bool                 `json:"traced"`
	Reps      []map[string]float64 `json:"repetitions,omitempty"`
	Median    map[string]float64   `json:"median"`
	Q1        map[string]float64   `json:"q1,omitempty"`
	Q3        map[string]float64   `json:"q3,omitempty"`
	Samples   []int                `json:"latency_samples,omitempty"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Breaches  []string             `json:"breaches"`
	Notes     []string             `json:"notes,omitempty"`
	// Counters are the oracle's and the transport's own tallies, summed over
	// the repetitions: retransmissions, discarded duplicates, re-dials.
	Counters map[string]float64 `json:"counters,omitempty"`

	defs []metricDef
}

func newResult(w *workload, o options, defs []metricDef) *result {
	return &result{Workload: w.name, Traced: o.trace, Correct: true, defs: defs,
		Median: map[string]float64{}, Q1: map[string]float64{}, Q3: map[string]float64{}}
}

// addRep folds one end-to-end repetition into the result.
func (res *result) addRep(r *repResult) {
	res.Reps = append(res.Reps, r.endToEnd())
	res.Samples = append(res.Samples, len(r.lat))
	res.Attempted += r.attempted
	res.Failed += r.attempted - r.completed
	if res.Counters == nil {
		res.Counters = map[string]float64{}
	}
	for name, v := range r.counters {
		res.Counters[name] += v
	}
	for _, b := range r.breaches {
		res.Breaches = append(res.Breaches, fmt.Sprintf("repetition %d: %s", len(res.Reps), b))
	}
}

// finish computes medians and quartiles and the verdict. The traced run
// measures every figure once; its single set of values is the median.
func (res *result) finish() {
	res.Correct = len(res.Breaches) == 0
	if len(res.Reps) == 1 {
		res.Median, res.Reps = res.Reps[0], nil
		return
	}
	for _, d := range res.defs {
		vs := make([]float64, 0, len(res.Reps))
		for _, rep := range res.Reps {
			vs = append(vs, rep[d.name])
		}
		res.Q1[d.name], res.Median[d.name], res.Q3[d.name] = quartiles(vs)
	}
}

// print writes the human-readable table, the machine-readable result block,
// and last the one-line object the driver parses.
func (res *result) print(out io.Writer) {
	fmt.Fprintf(out, "engine %s, seed %d, commit %s\n", res.Env.Engine, res.Env.Seed, res.Env.Commit)
	if len(res.Reps) == 0 {
		fmt.Fprintf(out, "%-46s %-8s %14s\n", "metric", "unit", "value")
		for _, d := range res.defs {
			fmt.Fprintf(out, "%-46s %-8s %14s\n", d.name, d.unit, fmtValue(res.Median[d.name]))
		}
	} else {
		fmt.Fprintf(out, "%-22s %-7s %14s %14s %14s  per repetition (%d)\n", "metric", "unit", "median", "q1", "q3", len(res.Reps))
		for _, d := range res.defs {
			reps := make([]string, len(res.Reps))
			for i, rep := range res.Reps {
				reps[i] = fmtValue(rep[d.name])
			}
			fmt.Fprintf(out, "%-22s %-7s %14s %14s %14s  %s\n", d.name, d.unit,
				fmtValue(res.Median[d.name]), fmtValue(res.Q1[d.name]), fmtValue(res.Q3[d.name]), strings.Join(reps, " "))
		}
	}
	if len(res.Samples) > 0 {
		n := res.Samples[0]
		for _, s := range res.Samples {
			n = min(n, s)
		}
		fmt.Fprintf(out, "latency samples per repetition: at least %d (%d beyond p99; highest percentile with >=%d beyond it: p%g)\n",
			n, n/100, minTailSamples, highestPercentile(n))
	}
	if len(res.Counters) > 0 {
		names := make([]string, 0, len(res.Counters))
		for name := range res.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(out, "counters, summed over the repetitions:")
		for _, name := range names {
			fmt.Fprintf(out, " %s=%g", name, res.Counters[name])
		}
		fmt.Fprintln(out)
	}
	for _, n := range res.Notes {
		fmt.Fprintln(out, n)
	}
	for _, b := range res.Breaches {
		fmt.Fprintln(out, "ORACLE BREACH:", b)
	}
	fmt.Fprintf(out, "attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)

	block, _ := json.Marshal(res) // maps of strings and floats cannot fail to marshal
	fmt.Fprintf(out, "result-block %s\n", block)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, map[string]value{}}
	for _, d := range res.defs {
		final.Metrics[d.name] = value{res.Median[d.name], d.unit}
	}
	line, _ := json.Marshal(final)
	fmt.Fprintf(out, "%s\n", line)
}

func fmtValue(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v <= -1000:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}
