package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"dlinfma/internal/engine"
	"dlinfma/internal/eval"
	"dlinfma/internal/model"
	"dlinfma/internal/synth"
)

// bootMode is how a workload's service comes up during set-up.
type bootMode int

const (
	// bootRestore restores a snapshot written during untimed preparation,
	// then ingests the city file without retraining — a `serve -data
	// -snapshot` restart.
	bootRestore bootMode = iota
	// bootCold opens a fresh WAL under the `interval` fsync policy, then
	// ingests the city file and trains before serving — a first
	// `serve -data -wal-dir` start.
	bootCold
)

// workload is one traffic mix. Every run reports every end-to-end metric,
// so every workload runs the same phases (set-up, lookups, ingest, stream,
// re-inference) over the same city and trips; what differs is how the
// service boots, whether a WAL is attached, and how much of the run the
// lookups take. lookup-zipf's writes are thereby stream-wal's writes
// without a WAL: the pair shows what the WAL costs.
type workload struct {
	name string
	boot bootMode
	// probes is how many extra set-ups the run times at each of its four
	// probe points, beside the one set-up that serves it; setup_s is the
	// median of them all.
	probes int
	// getShare and batchShare are the shares of --seconds spent in the
	// closed-loop GET and batch phases.
	getShare, batchShare float64
}

// Both workloads serve the synth.Tiny layout (182 addresses, two couriers).
// baseDays of trips go into the city file; ingestDays further days are
// uploaded through /v1/ingest before the re-inference; streamDays days
// after those are streamed as one-trip NDJSON sessions before the
// re-inference; lateDays days after the streamed ones are uploaded after
// everything else and left pending: they give the ingest rate more work
// without adding to the re-inference.
const baseDays, ingestDays, streamDays, lateDays = 14, 70, 600, 840

// totalDays is how many days the city is simulated for.
const totalDays = baseDays + ingestDays + streamDays + lateDays

// batchKeys is the number of keys per POST /v1/locations:batch.
const batchKeys = 256

var workloads = []workload{
	{
		name: "lookup-zipf",
		boot: bootRestore, probes: 10, getShare: 0.6, batchShare: 0.4,
	},
	{
		name: "stream-wal",
		boot: bootCold, probes: 1, getShare: 0.5, batchShare: 0.5,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// engineConfig is the serving stack as `dlinfma serve -workers 0` builds it:
// the paper's pipeline defaults, the CLI's LocMatcher tuning, and workers 0,
// which trains on the serial deterministic path.
func engineConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Core.Workers = 0
	cfg.Matcher = eval.ExperimentLocMatcherConfig()
	cfg.Matcher.Workers = 0
	return cfg
}

// Input files written by preparation. The program under test receives only
// these files and the requests built from them.
const (
	cityFile = "city.json.gz" // addresses, ground truth and baseDays of trips
	moreFile = "more.json.gz" // the further days' trips
	snapFile = "snap.json"    // bootRestore only: the serving state to restore
)

// generate builds the workload's city with synth: the Tiny layout and
// simulation at the profile's own seed, simulated for every day the
// workload needs, then split by day into the city file's dataset and the
// further days. The city does not vary with the run's seed: the number of
// epochs early stopping lets a re-inference train, and so its time, varies
// between cities by more than any bound could absorb (42-day Tiny cities
// of profile seeds 8 to 15 re-infer in 2.3 to 8.0 s), so the seed varies
// the request streams instead.
func generate() (city, more *model.Dataset, err error) {
	p := synth.Tiny()
	p.Days = totalDays
	ds, _, err := synth.Generate(p)
	if err != nil {
		return nil, nil, err
	}
	city = &model.Dataset{Name: ds.Name, Addresses: ds.Addresses, Truth: ds.Truth}
	more = &model.Dataset{Name: ds.Name + "-more"}
	for _, tr := range ds.Trips {
		if dayOf(tr) < baseDays {
			city.Trips = append(city.Trips, tr)
		} else {
			more.Trips = append(more.Trips, tr)
		}
	}
	return city, more, nil
}

// dayOf is the simulation day a trip starts on (synth starts day d's trips
// at d*86400 plus a morning offset).
func dayOf(tr model.Trip) int { return int(tr.StartT / 86400) }

// splitMore separates the further days into uploaded, streamed and
// late-uploaded trips.
func splitMore(more *model.Dataset) (ingest, stream, late []model.Trip) {
	for _, tr := range more.Trips {
		switch d := dayOf(tr); {
		case d < baseDays+ingestDays:
			ingest = append(ingest, tr)
		case d < baseDays+ingestDays+streamDays:
			stream = append(stream, tr)
		default:
			late = append(late, tr)
		}
	}
	return ingest, stream, late
}

// prepare writes the workload's input files into dir. It runs in a child
// process (see runPrepare) so that generating and, for bootRestore,
// training the snapshot's model does not count in the measured process's
// peak memory.
func prepare(ctx context.Context, w workload, dir string) error {
	city, more, err := generate()
	if err != nil {
		return err
	}
	if err := city.SaveFile(filepath.Join(dir, cityFile)); err != nil {
		return err
	}
	if err := more.SaveFile(filepath.Join(dir, moreFile)); err != nil {
		return err
	}
	if w.boot != bootRestore {
		return nil
	}
	e := engine.New(engineConfig())
	defer e.Close()
	if err := e.IngestDataset(ctx, city); err != nil {
		return err
	}
	if err := e.Reinfer(ctx); err != nil {
		return err
	}
	return e.SaveSnapshotFile(filepath.Join(dir, snapFile))
}

// runPrepare runs preparation in a child process of this binary and waits
// for it.
func runPrepare(w workload, dir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "prepare", "--workload", w.name, "--dir", dir)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("prepare %s: %w", w.name, err)
	}
	return nil
}
