// Command alphaobs scrapes one or more ALPHA /metrics endpoints and holds
// the samples to the telemetry invariant catalog (DESIGN.md §5d):
//
//	I1  counters never move backwards (-recheck takes a second scrape)
//	I2  benign runs show zero verification failures (-benign); the
//	    catalog counts forged/replayed/wrong-address admission tokens
//	    (drop_admission_{invalid,replayed,addr_mismatch}) as hostile,
//	    while missing/expired tokens have benign causes and stay out
//	I3  dropped == sum of drop_<reason> for every drop family, the
//	    admission tier's alpha_admission family and the relay's
//	    drop_s1_ratelimit included
//	I4  flow conservation and the loss-scaled drop budget
//
// Usage:
//
//	alphaobs -benign -loss 0.1 -offered 10000 -hops 3 http://127.0.0.1:9100/metrics
//	alphaobs -recheck 2s http://a:9100/metrics http://b:9100/metrics
//
// Samples from multiple endpoints are summed per name, giving the chain-wide
// aggregate view the conservation rules reason about. Exit status: 0 all
// invariants hold, 1 violations, 2 usage or scrape errors.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"alpha/internal/obs"
)

func main() {
	var (
		benign   = flag.Bool("benign", false, "assert I2: no adversary, so any verification-failure drop is a violation")
		offered  = flag.Uint64("offered", 0, "offered datagram load for the I4 drop budget (0 = skip the budget rule)")
		loss     = flag.Float64("loss", 0, "expected per-hop loss probability for the I4 drop budget")
		hops     = flag.Int("hops", 0, "path length in verifying hops for the I4 drop budget")
		maxDrops = flag.Uint64("max-drops", 0, "absolute drop ceiling overriding the loss-scaled budget (0 = derive from -offered/-loss/-hops)")
		recheck  = flag.Duration("recheck", 0, "scrape again after this delay and assert I1 monotonicity between the two snapshots")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-scrape HTTP timeout")
		quiet    = flag.Bool("q", false, "suppress the per-rule summary; violations still print")
	)
	flag.Parse()
	urls := flag.Args()
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "usage: alphaobs [flags] <metrics-url>...")
		flag.PrintDefaults()
		os.Exit(2)
	}

	client := &http.Client{Timeout: *timeout}
	scrape := func() (obs.MetricSnapshot, map[string]bool) {
		merged := make(obs.MetricSnapshot)
		counters := make(map[string]bool)
		for _, u := range urls {
			resp, err := client.Get(u)
			if err != nil {
				fmt.Fprintf(os.Stderr, "alphaobs: %v\n", err)
				os.Exit(2)
			}
			snap, ctrs, err := obs.ParsePrometheus(resp.Body)
			resp.Body.Close()
			if err != nil {
				fmt.Fprintf(os.Stderr, "alphaobs: %s: %v\n", u, err)
				os.Exit(2)
			}
			// Sum per name: the invariant rules then see the chain-wide
			// aggregate, which is what conservation is about.
			for name, v := range snap {
				merged[name] += v
			}
			for name := range ctrs {
				counters[name] = true
			}
		}
		return merged, counters
	}

	snap, counters := scrape()
	inv := obs.Invariants{
		Benign:   *benign,
		Offered:  *offered,
		Loss:     *loss,
		Hops:     *hops,
		MaxDrops: *maxDrops,
	}
	violations := inv.Check(snap)

	if *recheck > 0 {
		time.Sleep(*recheck)
		cur, _ := scrape()
		violations = append(violations, obs.Monotonic(snap, cur, counters)...)
		// The second snapshot may have moved; the point-in-time rules must
		// still hold on it.
		violations = append(violations, inv.Check(cur)...)
	}

	for _, v := range violations {
		fmt.Println(v)
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "alphaobs: %d invariant violation(s) across %d endpoint(s)\n", len(violations), len(urls))
		os.Exit(1)
	}
	if !*quiet {
		fmt.Printf("alphaobs: %d samples from %d endpoint(s): invariants hold\n", len(snap), len(urls))
	}
}
