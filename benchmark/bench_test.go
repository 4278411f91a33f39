package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"dlinfma/internal/deploy/api"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/traj"
)

func TestPercentileMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 1001} {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = math.Floor(rng.Float64() * 50) // ties included
		}
		sorted := append([]float64(nil), vs...)
		sort.Float64s(sorted)
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1} {
			got := percentile(sorted, q)
			// Nearest rank: the smallest sample with at least q·n samples
			// at or below it.
			want := sorted[len(sorted)-1]
			for _, v := range sorted {
				atOrBelow := sort.SearchFloat64s(sorted, v+1e-9)
				if float64(atOrBelow) >= q*float64(n) {
					want = v
					break
				}
			}
			if got != want {
				t.Errorf("n=%d q=%v: percentile = %v, want %v", n, q, got, want)
			}
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q2 != 3 || q3 != 4.5 {
		t.Fatalf("quartiles = %v %v %v, want 1 3 4.5", q1, q2, q3)
	}
}

func TestSummarizeCountsBeyondP99(t *testing.T) {
	var ds []time.Duration
	for i := 1000; i >= 1; i-- {
		ds = append(ds, time.Duration(i))
	}
	s := summarize(ds, time.Nanosecond, "ns")
	if s.N != 1000 || s.P50 != 500 || s.P99 != 990 || s.Beyond != 10 {
		t.Fatalf("summary = %+v, want n 1000, p50 500, p99 990, 10 beyond", s)
	}
}

func TestWeightedKeysRepeatableAndProportional(t *testing.T) {
	// Heavy-tailed weights like a city's waybill counts, with one address
	// that has no waybill.
	weights := map[int64]int{0: 0}
	for k := int64(1); k < 182; k++ {
		weights[k] = 1 + int(k%7)*int(k%11)
	}
	weights[17] = 400
	a := newWeightedKeys(weights, 42).draw(200000)
	b := newWeightedKeys(weights, 42).draw(200000)
	c := newWeightedKeys(weights, 43).draw(200000)
	if !equalInts(a, b) {
		t.Fatal("same seed drew different keys")
	}
	if equalInts(a, c) {
		t.Fatal("different seeds drew the same keys")
	}
	total := 0
	for _, w := range weights {
		total += w
	}
	counts := make(map[int64]int)
	for _, k := range a {
		if weights[k] == 0 {
			t.Fatalf("drew key %d, which has no weight", k)
		}
		counts[k]++
	}
	// Every key's share of the draws is its share of the weight.
	for k, w := range weights {
		want := float64(w) / float64(total)
		got := float64(counts[k]) / float64(len(a))
		if math.Abs(got-want) > 0.003 {
			t.Errorf("key %d drawn %.4f of the time, want %.4f", k, got, want)
		}
	}
	if hot := float64(counts[17]) / float64(len(a)); hot < 0.05 {
		t.Errorf("the heaviest key got %.3f of the draws", hot)
	}
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSessionBodyRoundTripsThroughStreamPoint(t *testing.T) {
	tr := model.Trip{Courier: 3, Traj: traj.Trajectory{
		{P: geo.Point{X: 1.25, Y: -2.5}, T: 100},
		{P: geo.Point{X: 1.0 / 3, Y: 1e-9}, T: 113.5},
		{P: geo.Point{X: -7, Y: 8.125}, T: 127.123456789},
	}}
	sc := bufio.NewScanner(bytes.NewReader(sessionBody(tr)))
	var got []api.StreamPoint
	for sc.Scan() {
		var p api.StreamPoint
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("line %d: %v", len(got)+1, err)
		}
		got = append(got, p)
	}
	if len(got) != len(tr.Traj)+1 {
		t.Fatalf("%d lines, want %d fixes and an end marker", len(got), len(tr.Traj))
	}
	for i, fix := range tr.Traj {
		want := api.StreamPoint{Courier: 3, X: fix.P.X, Y: fix.P.Y, T: fix.T}
		if got[i] != want {
			t.Errorf("line %d = %+v, want %+v", i+1, got[i], want)
		}
	}
	if end := got[len(got)-1]; end != (api.StreamPoint{Courier: 3, End: true}) {
		t.Errorf("last line = %+v, want the courier's end marker", end)
	}
}

// A hand-built three-address city: the served answers are 50 m (on the β50
// boundary), 10 m and 100 m off; the geocodes 60 m, 0 m and 80 m.
func threeAddressCity() (served, geocodes, truth map[int64][2]float64) {
	truth = map[int64][2]float64{1: {0, 0}, 2: {100, 0}, 3: {0, 100}}
	served = map[int64][2]float64{1: {30, 40}, 2: {100, 10}, 3: {0, 200}}
	geocodes = map[int64][2]float64{1: {0, 60}, 2: {100, 0}, 3: {80, 100}}
	return served, geocodes, truth
}

func TestAccuracyOnThreeAddressCity(t *testing.T) {
	served, geocodes, truth := threeAddressCity()
	s, err := accuracyOf(served, truth)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 3 || math.Abs(s.Beta50Pct-200.0/3) > 1e-9 || math.Abs(s.MAEm-160.0/3) > 1e-9 {
		t.Errorf("served accuracy = %+v, want β50 66.67%%, MAE 53.33 m", s)
	}
	g, err := accuracyOf(geocodes, truth)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Beta50Pct-100.0/3) > 1e-9 || math.Abs(g.MAEm-140.0/3) > 1e-9 {
		t.Errorf("geocode accuracy = %+v, want β50 33.33%%, MAE 46.67 m", g)
	}
	// Better β50 but worse mean error does not beat the baseline.
	if err := checkBeatsBaseline(s, g); err == nil {
		t.Error("served answers with a worse MAE beat the baseline")
	}
	served[3] = [2]float64{0, 120}
	s, _ = accuracyOf(served, truth)
	if err := checkBeatsBaseline(s, g); err != nil {
		t.Errorf("served β50 66.67%%, MAE %.2f m vs geocodes: %v", s.MAEm, err)
	}
	delete(served, 2)
	if _, err := accuracyOf(served, truth); err == nil {
		t.Error("an address without an answer was scored")
	}
}

func TestReadCityFactsDecodesTheDatasetFile(t *testing.T) {
	ds := &model.Dataset{
		Name: "three",
		Trips: []model.Trip{
			{Waybills: []model.Waybill{{Addr: 2}, {Addr: 3}, {Addr: 2}}},
			{Waybills: []model.Waybill{{Addr: 2}}},
		},
		Addresses: []model.AddressInfo{
			{ID: 2, Geocode: geo.Point{X: 100, Y: 0}},
			{ID: 1, Geocode: geo.Point{X: 0, Y: 60}},
			{ID: 3, Geocode: geo.Point{X: 80, Y: 100}},
		},
		Truth: map[model.AddressID]geo.Point{1: {X: 0, Y: 0}, 2: {X: 100, Y: 0}, 3: {X: 0, Y: 100}},
	}
	path := filepath.Join(t.TempDir(), "city.json.gz")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	facts, err := readCityFacts(path)
	if err != nil {
		t.Fatal(err)
	}
	_, geocodes, truth := threeAddressCity()
	if !equalInts(facts.ids, []int64{1, 2, 3}) {
		t.Errorf("ids = %v, want sorted 1 2 3", facts.ids)
	}
	for id := int64(1); id <= 3; id++ {
		if facts.geocodes[id] != geocodes[id] || facts.truth[id] != truth[id] {
			t.Errorf("address %d: geocode %v truth %v, want %v %v", id, facts.geocodes[id], facts.truth[id], geocodes[id], truth[id])
		}
	}
	if w := facts.waybills; len(w) != 2 || w[2] != 3 || w[3] != 1 {
		t.Errorf("waybill counts = %v, want 3 for address 2 and 1 for address 3", w)
	}
}

func TestSwapPartitionCheck(t *testing.T) {
	ok := []api.SwapReport{
		{Seq: 1, Before: 0, After: 695, Added: 695},                                  // cold boot
		{Seq: 2, Before: 175, After: 175, Moved: 170, Retained: 5},                   // retrain
		{Seq: 3, Before: 10, After: 12, Added: 3, Dropped: 1, Moved: 4, Retained: 5}, // both sides change
	}
	for _, r := range ok {
		if err := checkSwapPartition(r); err != nil {
			t.Errorf("swap %d: %v", r.Seq, err)
		}
	}
	bad := []api.SwapReport{
		{Seq: 4, Before: 10, After: 12, Added: 2, Dropped: 1, Moved: 4, Retained: 5}, // after side short
		{Seq: 5, Before: 10, After: 12, Added: 3, Dropped: 2, Moved: 4, Retained: 5}, // before side long
		{Seq: 6, Before: 0, After: 0, Retained: 1},
	}
	for _, r := range bad {
		if err := checkSwapPartition(r); err == nil {
			t.Errorf("swap %d passed the partition check", r.Seq)
		}
	}
}

func TestWindowsCutOnTheGrid(t *testing.T) {
	day := 86400.0
	var trips []model.Trip
	for _, d := range []float64{0, 3, 13.9, 14.1, 27, 45} {
		trips = append(trips, model.Trip{StartT: 1000 + d*day})
	}
	got := windows(trips, 14*day)
	sizes := make([]int64, len(got))
	for i, w := range got {
		sizes[i] = int64(len(w))
	}
	if !equalInts(sizes, []int64{3, 2, 1}) {
		t.Fatalf("window sizes = %v, want 3 2 1", sizes)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "phase", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "req", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "req", Start: 30, End: 50},  // overlaps the first
		{ID: 4, Parent: 1, Name: "req", Start: 90, End: 120}, // runs past the parent
	}
	got := map[string]selfTime{}
	for _, s := range selfTimes(spans) {
		got[s.Name] = s
	}
	// Children cover 10..50 and 90..100 of the parent: 50 ns of its 100.
	if p := got["phase"]; p.Count != 1 || p.TotalMS != 100e-6 || math.Abs(p.SelfMS-50e-6) > 1e-12 {
		t.Errorf("phase = %+v, want self 50 ns of 100", p)
	}
	if r := got["req"]; r.Count != 3 || math.Abs(r.SelfMS-80e-6) > 1e-12 {
		t.Errorf("req = %+v, want 3 leaves with 80 ns self", r)
	}
}

func TestBusyTimeSubtractsStealAndStaysPositive(t *testing.T) {
	if got := busyOf(5*time.Second, 1200*time.Millisecond); got != 3800*time.Millisecond {
		t.Errorf("busy = %v, want 3.8s", got)
	}
	// Steal is counted in 10 ms ticks, so a short span can be charged more
	// than its wall time.
	if got := busyOf(8*time.Millisecond, 10*time.Millisecond); got <= 0 {
		t.Errorf("busy = %v, want positive", got)
	}
	c := startClock()
	if wall, steal := c.elapsed(); wall < 0 || steal < 0 {
		t.Errorf("elapsed = %v wall, %v steal", wall, steal)
	}
}
