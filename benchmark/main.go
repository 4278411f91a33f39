// Command dlbench is the repository's end-to-end benchmark. It builds the
// serving stack as `dlinfma serve -workers 0` does (one shard, the default
// 10% request tracer, the `interval` WAL policy where a WAL is used), serves
// it on a loopback socket inside this process, drives one workload against
// it from the same process, checks the answers against computations of its
// own, and prints the metrics named in BENCHMARK.json.
//
//	dlbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	dlbench steadiness [--runs 10] [--workloads a,b] [--seconds s]
//
// With --trace 0 the last line of standard output holds the end-to-end
// metrics; with --trace 1 the run also records spans around every request
// it sends and every layer call it times, writes them out, and the last
// line holds the per-layer metrics. Run it through run.sh, which builds it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "prepare":
			os.Exit(cmdPrepare(os.Args[2:]))
		case "steadiness":
			os.Exit(cmdSteadiness(os.Args[2:]))
		}
	}
	os.Exit(cmdRun(os.Args[1:]))
}

// workDir is where runs keep generated inputs, WAL directories and spans.
func workDir() string {
	if d := os.Getenv("DLBENCH_WORK"); d != "" {
		return d
	}
	return ".bench_build"
}

func cmdPrepare(args []string) int {
	fs := flag.NewFlagSet("prepare", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	dir := fs.String("dir", "", "output directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err == nil {
		err = prepare(context.Background(), w, *dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlbench prepare:", err)
		return 1
	}
	return 0
}

func cmdRun(args []string) int {
	fs := flag.NewFlagSet("dlbench", flag.ContinueOnError)
	name := fs.String("workload", "lookup-zipf", "workload: lookup-zipf or stream-wal")
	seed := fs.Int64("seed", 1, "request seed: the same seed sends the same keys in the same order")
	seconds := fs.Float64("seconds", 10, "length of the time-bounded lookup phases, split by the workload's shares")
	traced := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlbench:", err)
		return 2
	}
	res, err := runWorkload(w, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlbench:", err)
		return 1
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload prepares the inputs, runs the workload and, when traced,
// times the layers; it prints everything but the result line.
func runWorkload(w workload, seed int64, seconds float64, traced bool) (result, error) {
	ctx := context.Background()
	dir := filepath.Join(workDir(), "runs", fmt.Sprintf("%s-s%d-%d", w.name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	if err := runPrepare(w, dir); err != nil {
		return result{}, err
	}
	r := &run{
		w: w, seed: seed, seconds: seconds, dir: dir,
		cfg:     engineConfig(),
		metrics: make(map[string]metricVal),
		ref:     make(map[string]any),
	}
	if traced {
		r.tr = newTracer(fmt.Sprintf("%s-s%d-%d", w.name, seed, os.Getpid()))
	}
	r.c = newClient(r.tr)
	defer r.tearDown()
	facts, err := readCityFacts(filepath.Join(dir, cityFile))
	if err != nil {
		return result{}, err
	}
	r.facts = facts
	r.ids = r.facts.ids
	if err := r.execute(ctx); err != nil {
		return result{}, err
	}
	out := r.metrics
	if traced {
		layer, err := timeLayers(ctx, r)
		if err != nil {
			return result{}, fmt.Errorf("layers: %w", err)
		}
		printJSON("e2e_metrics", r.metrics)
		spansPath := filepath.Join(workDir(), "spans", w.name+".jsonl")
		if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
			return result{}, err
		}
		if err := r.tr.write(spansPath); err != nil {
			return result{}, err
		}
		printJSON("self_times", selfTimes(r.tr.spans))
		fmt.Printf("spans: %d written to %s\n", len(r.tr.spans), spansPath)
		out = layer
	}
	per, attempted, failed := r.c.opCounts()
	printJSON("operations", per)
	printJSON("reference", r.ref)
	for _, f := range r.failures {
		fmt.Println("CHECK FAILED:", f)
	}
	return result{Correct: len(r.failures) == 0, Attempted: attempted, Failed: failed, Metrics: out}, nil
}

func printJSON(label string, v any) {
	b, _ := json.Marshal(v)
	fmt.Printf("%s: %s\n", label, b)
}
