package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOfChargesInnermostRepoFrame(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		// Library cost lands on the repository frame that called it.
		{[]string{"runtime.mallocgc", "encoding/json.Marshal", "repro/internal/vllm.(*Engine).step", "repro/internal/sim.(*Engine).Step"}, "vllm"},
		{[]string{"repro/internal/sched.Describe", "repro/internal/ingress.(*Gateway).dispatch"}, "sched"},
		{[]string{"net/url.Parse", "repro/internal/vhttp.SplitHostPort", "repro/internal/ingress.(*Router).Serve"}, "vhttp"},
		// The deploy path's packages are charged to core.
		{[]string{"repro/internal/slurm.(*Cluster).start", "repro/internal/core.(*Deployer).Deploy"}, "core"},
		{[]string{"repro/internal/cruntime.(*Podman).Run.func1"}, "core"},
		// Model specs belong with the engine, length calibration with the
		// workload generator.
		{[]string{"repro/internal/llm.(*ModelSpec).KVBytesPerToken"}, "vllm"},
		{[]string{"repro/internal/sharegpt.Synthesize"}, "workload"},
		// The benchmark's own client code is bench.
		{[]string{"runtime.memmove", "main.(*recorder).DoChat", "repro/internal/bench.RunWorkload.func1"}, "bench"},
		// Generic instantiations keep their package.
		{[]string{"repro/internal/sim.Await[go.shape.*uint8]"}, "sim"},
		// No repository frame: background runtime work.
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime.bg"},
		{nil, "runtime.bg"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// checkShares asserts that shares cover exactly the known layers and sum
// to one.
func checkShares(t *testing.T, shares map[string]float64) {
	t.Helper()
	if len(shares) != len(layers) {
		t.Fatalf("%d layers charged, want %d: %v", len(shares), len(layers), shares)
	}
	sum := 0.0
	for _, l := range layers {
		v, ok := shares[l]
		if !ok || v < 0 || v > 1 {
			t.Fatalf("layer %s share %v (present %v)", l, v, ok)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v, want 1", sum)
	}
}

func TestBucketChargesEverySampleOnce(t *testing.T) {
	stacks := [][]string{
		{"repro/internal/vllm.(*Engine).step"},
		{"runtime.mallocgc", "repro/internal/ingress.(*Gateway).dispatch"},
		{"runtime.gcBgMarkWorker"},
		{"main.main"},
		{"repro/internal/objstore.(*Server).Put"},
	}
	counts := []int64{5, 3, 1, 1, 2}
	shares, total, err := bucket(stacks, counts)
	if err != nil {
		t.Fatal(err)
	}
	if total != 12 {
		t.Fatalf("total %d samples, want 12", total)
	}
	checkShares(t, shares)
	want := map[string]float64{"vllm": 5.0 / 12, "ingress": 3.0 / 12, "runtime.bg": 1.0 / 12, "bench": 1.0 / 12, "core": 2.0 / 12}
	for l, w := range want {
		if math.Abs(shares[l]-w) > 1e-12 {
			t.Errorf("%s share %v, want %v", l, shares[l], w)
		}
	}
	if _, _, err := bucket(nil, nil); err == nil {
		t.Error("an empty profile must be an error, not all-zero shares")
	}
}

var sink float64

// TestLayerSharesOfRealProfile parses a profile written by runtime/pprof:
// every sample it holds is charged, and the shares sum to one.
func TestLayerSharesOfRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			sink += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	stacks, counts, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) == 0 {
		t.Skip("profile holds no samples on this machine")
	}
	for i, st := range stacks {
		if len(st) == 0 || counts[i] <= 0 {
			t.Fatalf("sample %d: stack %q count %d", i, st, counts[i])
		}
	}
	shares, _, err := layerShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	checkShares(t, shares)
	if shares["bench"] == 0 {
		t.Errorf("the test's own frames should be charged to bench: %v", shares)
	}
}
