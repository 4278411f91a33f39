package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness check reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// setStats is one metric's distribution over one set of runs.
type setStats struct {
	Q1, Median, Q3 float64
}

// spread is the interquartile distance as a share of the median.
func (s setStats) spread() float64 { return (s.Q3 - s.Q1) / s.Median }

// worsening is how much worse b's median is than a's, as a share of a's
// (negative when b is better).
func worsening(a, b setStats, better string) float64 {
	if better == "higher" {
		return (a.Median - b.Median) / a.Median
	}
	return (b.Median - a.Median) / a.Median
}

// cmdSteadiness runs two sets of runs of this build, each run with its own
// seed, and reports per workload and end-to-end metric each set's median
// and quartiles and whether the sets agree within BENCHMARK.json's bounds:
// every spread within its bound, set-up time's too, the second median no
// worse than the first by more than the bound, and the same share of
// failed operations in both sets.
func cmdSteadiness(args []string) int {
	fs := flag.NewFlagSet("steadiness", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload in each of the two sets")
	only := fs.String("workloads", "", "comma-separated workloads (default: all in BENCHMARK.json)")
	seconds := fs.Int("seconds", 0, "run length (default: BENCHMARK.json's run_seconds)")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "steadiness:", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "steadiness: decode", *specPath+":", err)
		return 1
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "steadiness:", err)
		return 1
	}

	// values[set][workload][metric] and failed shares per set and workload.
	values := [2]map[string]map[string][]float64{{}, {}}
	failedShare := [2]map[string][]float64{{}, {}}
	for set := 0; set < 2; set++ {
		for i := 0; i < *runs; i++ {
			seed := set*(*runs) + i + 1
			for _, w := range names {
				res, err := runOnce(exe, w, seed, *seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "steadiness: %s seed %d: %v\n", w, seed, err)
					return 1
				}
				fmt.Fprintf(os.Stderr, "set %d %s seed %d: %d attempted, %d failed\n", set+1, w, seed, res.Attempted, res.Failed)
				if values[set][w] == nil {
					values[set][w] = make(map[string][]float64)
				}
				for m, v := range res.Metrics {
					values[set][w][m] = append(values[set][w][m], v.Value)
				}
				failedShare[set][w] = append(failedShare[set][w], float64(res.Failed)/float64(res.Attempted))
			}
		}
	}

	ok := true
	fmt.Printf("%-14s %-22s %12s %8s %12s %8s %7s %7s  %s\n",
		"workload", "metric", "median1", "spread1", "median2", "spread2", "worse", "bound", "verdict")
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			a, b := values[0][w][m.Name], values[1][w][m.Name]
			if len(a) < 2 || len(b) < 2 {
				fmt.Printf("%-14s %-22s missing\n", w, m.Name)
				ok = false
				continue
			}
			s1, s2 := statsOf(a), statsOf(b)
			worse := worsening(s1, s2, m.Better)
			agree := worse <= m.Bound && s1.spread() <= m.Bound && s2.spread() <= m.Bound
			verdict := "agree"
			if !agree {
				verdict, ok = "DISAGREE", false
			}
			fmt.Printf("%-14s %-22s %12.5g %7.2f%% %12.5g %7.2f%% %6.2f%% %6.0f%%  %s  [q1 %.5g q3 %.5g | q1 %.5g q3 %.5g] %s\n",
				w, m.Name, s1.Median, 100*s1.spread(), s2.Median, 100*s2.spread(), 100*worse, 100*m.Bound,
				verdict, s1.Q1, s1.Q3, s2.Q1, s2.Q3, m.Unit)
		}
		f1, f2 := median(failedShare[0][w]), median(failedShare[1][w])
		if f1 != f2 {
			fmt.Printf("%-14s failed share differs between the sets: %g vs %g\n", w, f1, f2)
			ok = false
		}
	}
	if !ok {
		fmt.Println("steadiness: the two sets do NOT agree within the bounds")
		return 1
	}
	fmt.Println("steadiness: the two sets agree within the bounds")
	return 0
}

func statsOf(vs []float64) setStats {
	q1, q2, q3 := quartiles(vs)
	return setStats{Q1: q1, Median: q2, Q3: q3}
}

// runOnce runs one untraced benchmark run in a child process and parses the
// result line; a run that fails its checks is an error.
func runOnce(exe, workload string, seed, seconds int) (result, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err != nil {
		return result{}, fmt.Errorf("%w (last line: %s)", err, last)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("parse result line %q: %w", last, err)
	}
	if !res.Correct {
		return res, fmt.Errorf("output checks failed")
	}
	return res, nil
}
