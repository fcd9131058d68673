package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"

	"alpha/internal/udpio"
)

// quickOps is the size of a -quick repetition.
const quickOps = 200

// grantedEngine names the udpio engine the platform grants a loopback UDP
// socket with default options, which is what every workload asks for.
func grantedEngine() string {
	pc, err := listenLoopback()
	if err != nil {
		return "unknown"
	}
	defer pc.Close()
	if udpio.Wrap(pc, 0, nil).Batched() {
		return "batched (recvmmsg/sendmmsg)"
	}
	return "portable (one datagram per syscall)"
}

// childResult is the part of a child's result block the parent reads.
type childResult struct {
	Workload string             `json:"workload"`
	Median   map[string]float64 `json:"median"`
	Correct  bool               `json:"correct"`
}

// runAll runs every workload, each in a child process of its own so heap
// state and socket buffers of one cannot leak into the next, relays their
// reports to out and returns their medians.
func runAll(o options, out io.Writer) ([]childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var all []childResult
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds)}
		if o.trace {
			args = append(args, "-trace", "1")
		}
		if o.quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		report, err := cmd.Output() // waits for the child to end
		out.Write(report)
		if err != nil {
			return all, fmt.Errorf("workload %s: %w", w.name, err)
		}
		var cr childResult
		for _, line := range bytes.Split(report, []byte("\n")) {
			if rest, ok := bytes.CutPrefix(line, []byte("result-block ")); ok {
				if err := json.Unmarshal(rest, &cr); err != nil {
					return all, fmt.Errorf("workload %s: result block: %w", w.name, err)
				}
			}
		}
		if cr.Workload != w.name {
			return all, fmt.Errorf("workload %s printed no result block", w.name)
		}
		all = append(all, cr)
	}
	return all, nil
}

// printSummary puts the workloads' medians side by side, one metric a row.
func printSummary(all []childResult, o options) {
	defs := endToEndMetrics
	if o.trace {
		defs = perLayerMetrics
	}
	fmt.Printf("=== medians, seed %d\n%-46s %-8s", o.seed, "metric", "unit")
	for _, c := range all {
		fmt.Printf(" %17s", c.Workload)
	}
	fmt.Println()
	for _, d := range defs {
		fmt.Printf("%-46s %-8s", d.name, d.unit)
		for _, c := range all {
			fmt.Printf(" %17s", fmtValue(c.Median[d.name]))
		}
		fmt.Println()
	}
}

// selfcheck runs the full set twice back to back with the same code and
// reports, per workload and end-to-end metric, how far the second median is
// from the first relative to the metric's bound. Outside the bound in the
// worse direction is a failure: the benchmark could not tell such a change
// from noise.
func selfcheck(o options) error {
	o.trace = false
	var sets [2][]childResult
	for i := range sets {
		fmt.Printf("=== selfcheck set %d of 2\n", i+1)
		var err error
		if sets[i], err = runAll(o, os.Stdout); err != nil {
			return err
		}
	}
	fmt.Printf("=== selfcheck: second set against first (positive = worse)\n")
	fmt.Printf("%-18s %-22s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	outside := 0
	for i, a := range sets[0] {
		b := sets[1][i]
		for _, d := range endToEndMetrics {
			va, vb := a.Median[d.name], b.Median[d.name]
			worse := 0.0
			if va != 0 {
				worse = (vb - va) / va
				if d.better == "higher" {
					worse = -worse
				}
			}
			flag := ""
			if worse > d.bound {
				flag = "  OUTSIDE"
				outside++
			}
			fmt.Printf("%-18s %-22s %14s %14s %+8.2f%% %6.1f%%%s\n", a.Workload, d.name, fmtValue(va), fmtValue(vb), 100*worse, 100*d.bound, flag)
		}
	}
	if outside > 0 {
		return fmt.Errorf("selfcheck: %d metrics moved by more than their bound between two runs of the same code", outside)
	}
	return nil
}
