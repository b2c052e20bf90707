// Command perfbench is the repository's serving benchmark. It deploys a
// fresh simulated stack for one named workload, drives the workload's
// generated request stream through the repo's own client layer
// (workload.Generate → bench.RunWorkload → bench.HTTPTarget), checks the
// outcomes, and prints every metric with its unit. The last line of
// standard output is one JSON object for machines.
//
// Two clocks are reported: virtual time is what users of the modelled
// GenAI service see (TTFT, ITL, E2E, SLO attainment, startup, node-hours);
// wall time is what the simulator costs to run (requests simulated per
// second, set-up time, peak memory). With -trace 1 it reports per-layer
// metrics instead: counters and virtual spans per layer, and the wall CPU
// share of every package from a profile of the serve phase.
//
//	bash perfbench/run.sh --workload chat-prefix --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same request streams")
	seconds := flag.Int("seconds", 10, "wall seconds to keep repeating the serve phase")
	traced := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	flag.Parse()
	// The simulator is a cooperative discrete-event simulation: one
	// goroutine runs at a time, and only the garbage collector works in
	// parallel. On a shared host the second core is often a hyperthread
	// sibling or busy with other tenants, so a parallel collector makes
	// the wall-time metrics depend on the neighbours. One processor keeps
	// the whole run, collector included, on one core.
	runtime.GOMAXPROCS(1)

	w, err := lookupWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatal(fmt.Errorf("want --seconds >= 1 and --trace 0 or 1"))
	}
	res, err := runWorkload(w, *seed, *seconds, *traced == 1)
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout)
	line, err := json.Marshal(res.summary())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if len(res.failures) > 0 {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.Name)
	}
	sort.Strings(out)
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
