// Command bench is the repository's end-to-end benchmark: a signer, verifying
// relays and a verifier exchanging ALPHA traffic over loopback UDP sockets in
// one process, with a per-layer budget under the end-to-end figures. See
// README.md for the workloads, the metrics and how to read the output.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// A run makes at least minReps repetitions; -seconds adds more while the
// next one still fits into that much wall time, up to maxReps.
const (
	minReps = 3
	maxReps = 40
)

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	quick     bool
	selfcheck bool
	outDir    string // where the traced run writes its span file
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run; empty runs every workload, each in a child process")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the payload fill and the hostile-datagram schedule")
	flag.IntVar(&o.seconds, "seconds", 30, "wall time of the run: repetitions are added while the next one still fits (at least 3)")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced passes and reports the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&o.quick, "quick", false, "200-operation smoke run of the same code paths")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the full set twice and compare every end-to-end metric against its bound")
	flag.Parse()
	if flag.NArg() != 0 || trace < 0 || trace > 1 || o.seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = trace == 1
	o.outDir = filepath.Join("bench", "out")
	if _, err := os.Stat("bench"); err != nil {
		o.outDir = "out" // run from inside bench/
	}

	var err error
	switch {
	case o.selfcheck:
		err = selfcheck(o)
	case o.workload == "":
		var all []childResult
		if all, err = runAll(o, os.Stdout); err == nil {
			printSummary(all, o)
		}
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its report; the last
// line of standard output is the result object the driver reads.
func runOne(o options) error {
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.quick {
		w = w.quick()
	}
	env := readEnv(o)
	fmt.Printf("workload %s: %s\n", w.name, w.why)
	fmt.Printf("all traffic crosses the host's loopback interface inside one process (%d cores, GOMAXPROCS %d)\n", env.NProc, env.GOMAXPROCS)

	var res *result
	var err error
	if o.trace {
		res, err = runTraced(w, o)
	} else {
		res, err = runEndToEnd(w, o)
	}
	if err != nil {
		return err
	}
	res.Env = env
	res.print(os.Stdout)
	if !res.Correct {
		return fmt.Errorf("%s: oracle breaches: %s", w.name, strings.Join(res.Breaches, "; "))
	}
	return nil
}

// runEndToEnd repeats the workload with tracing off and reports the median
// of every end-to-end metric over the repetitions.
func runEndToEnd(w *workload, o options) (*result, error) {
	res := newResult(w, o, endToEndMetrics)
	// The budget is wall time, set-up and drain included, so that a run takes
	// as long as the driver was told it would on a slower machine too. The
	// longest repetition so far stands for the next one.
	start := time.Now()
	var longest time.Duration
	for rep := 0; rep < maxReps; rep++ {
		if rep >= minReps && (o.quick || time.Since(start)+longest > time.Duration(o.seconds)*time.Second) {
			break
		}
		t0 := time.Now()
		r, err := runRep(w, o.seed+int64(rep))
		if err != nil {
			return nil, fmt.Errorf("%s repetition %d: %w", w.name, rep+1, err)
		}
		longest = max(longest, time.Since(t0))
		res.addRep(r)
	}
	res.finish()
	return res, nil
}

// runRep runs one untraced repetition of any workload.
func runRep(w *workload, seed int64) (*repResult, error) {
	if w.churn {
		return runChurnRep(w, seed, nil)
	}
	r, topo, err := runTransportRep(w, seed)
	if err != nil {
		return nil, err
	}
	topo.close()
	return r, nil
}
