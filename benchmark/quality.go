package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"

	"dlinfma/internal/deploy/api"
	"dlinfma/internal/model"
)

// cityFacts is what the checks and the lookup traffic need from a city
// file, decoded by the benchmark itself rather than by the program's model
// package: every address key, each address's geocode, the generator's
// ground truth, and how many of the file's waybills go to each address.
type cityFacts struct {
	ids      []int64
	geocodes map[int64][2]float64
	truth    map[int64][2]float64
	waybills map[int64]int
}

// readCityFacts decodes the gzip-compressed city file at path.
func readCityFacts(path string) (cityFacts, error) {
	var facts cityFacts
	f, err := os.Open(path)
	if err != nil {
		return facts, err
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		return facts, err
	}
	var raw struct {
		Addresses []struct {
			ID      int64
			Geocode struct{ X, Y float64 }
		} `json:"addresses"`
		Trips []struct {
			Waybills []struct{ Addr int64 }
		} `json:"trips"`
		Truth map[string][2]float64 `json:"truth"`
	}
	if err := json.NewDecoder(gz).Decode(&raw); err != nil {
		return facts, fmt.Errorf("decode %s: %w", path, err)
	}
	facts.geocodes = make(map[int64][2]float64, len(raw.Addresses))
	for _, a := range raw.Addresses {
		facts.ids = append(facts.ids, a.ID)
		facts.geocodes[a.ID] = [2]float64{a.Geocode.X, a.Geocode.Y}
	}
	sort.Slice(facts.ids, func(i, j int) bool { return facts.ids[i] < facts.ids[j] })
	facts.waybills = make(map[int64]int, len(raw.Addresses))
	for _, tr := range raw.Trips {
		for _, w := range tr.Waybills {
			facts.waybills[w.Addr]++
		}
	}
	facts.truth = make(map[int64][2]float64, len(raw.Truth))
	for k, v := range raw.Truth {
		id, err := strconv.ParseInt(k, 10, 64)
		if err != nil {
			return facts, fmt.Errorf("truth key %q: %w", k, err)
		}
		facts.truth[id] = v
	}
	return facts, nil
}

// accuracy is the paper's Table II pair over a set of answers: β50, the
// share of addresses answered within 50 m of ground truth, and the mean
// distance to ground truth. Distances are Euclidean in the dataset's local
// metre plane.
type accuracy struct {
	N         int
	Beta50Pct float64
	MAEm      float64
}

// accuracyOf scores answers (x, y per address) against truth over every
// address that has a ground truth. An address with truth but no answer is
// an error: every registered address is answerable through the geocode
// fallback.
func accuracyOf(answers, truth map[int64][2]float64) (accuracy, error) {
	var a accuracy
	if len(truth) == 0 {
		return a, fmt.Errorf("no ground truth")
	}
	within, sum := 0, 0.0
	for id, t := range truth {
		loc, ok := answers[id]
		if !ok {
			return a, fmt.Errorf("no answer for address %d", id)
		}
		d := math.Hypot(loc[0]-t[0], loc[1]-t[1])
		if d <= 50 {
			within++
		}
		sum += d
	}
	a.N = len(truth)
	a.Beta50Pct = 100 * float64(within) / float64(len(truth))
	a.MAEm = sum / float64(len(truth))
	return a, nil
}

// points reduces served answers to their coordinates.
func points(answers map[int64]api.Location) map[int64][2]float64 {
	out := make(map[int64][2]float64, len(answers))
	for id, loc := range answers {
		out[id] = [2]float64{loc.X, loc.Y}
	}
	return out
}

// checkBeatsBaseline requires the served answers to beat the geocoding
// baseline on both β50 and mean error, as DLInfMA does in Table II.
func checkBeatsBaseline(served, geocode accuracy) error {
	if served.Beta50Pct <= geocode.Beta50Pct {
		return fmt.Errorf("served β50 %.1f%% does not beat the geocode baseline's %.1f%%", served.Beta50Pct, geocode.Beta50Pct)
	}
	if served.MAEm >= geocode.MAEm {
		return fmt.Errorf("served mean error %.1f m does not beat the geocode baseline's %.1f m", served.MAEm, geocode.MAEm)
	}
	return nil
}

// checkSwapPartition verifies that a hot-swap churn report partitions both
// stores: every address of the incoming store is added, moved or retained,
// and every address of the outgoing one is dropped, moved or retained.
func checkSwapPartition(r api.SwapReport) error {
	if got := r.Added + r.Moved + r.Retained; got != int64(r.After) {
		return fmt.Errorf("swap %d: added+moved+retained = %d, after = %d", r.Seq, got, r.After)
	}
	if got := r.Dropped + r.Moved + r.Retained; got != int64(r.Before) {
		return fmt.Errorf("swap %d: dropped+moved+retained = %d, before = %d", r.Seq, got, r.Before)
	}
	return nil
}

// sessionBody encodes one trip as an NDJSON stream session: one
// api.StreamPoint line per fix, then the courier's end marker, so the
// session closes exactly one trip.
func sessionBody(tr model.Trip) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, p := range tr.Traj {
		// Encoding a struct of plain numbers cannot fail.
		_ = enc.Encode(api.StreamPoint{Courier: int64(tr.Courier), X: p.P.X, Y: p.P.Y, T: p.T})
	}
	_ = enc.Encode(api.StreamPoint{Courier: int64(tr.Courier), End: true})
	return b.Bytes()
}
