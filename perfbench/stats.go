package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean returns the geometric mean of positive values (0 when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sample is one verdict as the benchmark saw it.
type sample struct {
	kind    string        // input (and variant) the verdict belongs to
	total   time.Duration // input bytes (or POST start) to verdict
	admit   time.Duration // input bytes to a parsed, admitted input
	clauses int           // proof clauses or LRAT steps decided
}

// kindMedians returns each kind's median verdict time in ms, in first-seen
// kind order.
func kindMedians(samples []sample) ([]string, []float64) {
	byKind := map[string][]float64{}
	var kinds []string
	for _, s := range samples {
		if _, ok := byKind[s.kind]; !ok {
			kinds = append(kinds, s.kind)
		}
		byKind[s.kind] = append(byKind[s.kind], ms(s.total))
	}
	meds := make([]float64, len(kinds))
	for i, k := range kinds {
		meds[i] = median(byKind[k])
	}
	return kinds, meds
}

// setupCost is one set-up's wall and process CPU time.
type setupCost struct{ wall, cpu time.Duration }

// endToEnd computes a window's end-to-end metrics from its verdicts, the
// window's wall time, what the process used during it, and the set-ups.
//
// The bounded metrics are process CPU time (all threads: the verifier, GC,
// and for dpvd the server and its clients) and allocation. On a host whose
// vCPUs are stolen for minutes at a time, wall-clock figures of identical
// dpvd runs drifted by a third while their CPU time per verdict stayed
// within about a tenth. The wall-clock figures (latency median, p90, per-kind geomean,
// throughput) are returned in the detail map, each with its unit and sample
// count.
func endToEnd(samples []sample, wall time.Duration, used memMark, setups []setupCost) (map[string]metric, map[string]any) {
	var totals, admits, setupCPU, setupWall []float64
	clauses := 0
	for _, s := range samples {
		totals = append(totals, ms(s.total))
		admits = append(admits, ms(s.admit))
		clauses += s.clauses
	}
	for _, c := range setups {
		setupCPU = append(setupCPU, c.cpu.Seconds())
		setupWall = append(setupWall, c.wall.Seconds())
	}
	kinds, meds := kindMedians(samples)
	n := float64(len(samples))
	m := map[string]metric{
		"setup_s":              {median(setupCPU), "s"},
		"cpu_ms_per_verdict":   {ms(used.cpu) / n, "ms"},
		"clauses_per_cpu_s":    {float64(clauses) / used.cpu.Seconds(), "1/s"},
		"alloc_mb_per_verdict": {float64(used.alloc) / (1 << 20) / n, "MB"},
	}
	type figure struct {
		Value   float64 `json:"value"`
		Unit    string  `json:"unit"`
		Samples int     `json:"samples"`
	}
	perKind := map[string]float64{}
	for i, k := range kinds {
		perKind[k] = meds[i]
	}
	return m, map[string]any{
		"verdicts":       len(samples),
		"setup_s_cpu":    setupCPU,
		"kind_median_ms": perKind,
		"wall_clock": map[string]figure{
			"setup_wall_s":       {median(setupWall), "s", len(setups)},
			"clauses_per_s":      {float64(clauses) / wall.Seconds(), "1/s", len(samples)},
			"jobs_per_s":         {n / wall.Seconds(), "1/s", len(samples)},
			"verdict_ms_geomean": {geomean(meds), "ms", len(kinds)},
			"verdict_ms_p50":     {median(totals), "ms", len(samples)},
			"verdict_ms_p90":     {quantile(totals, 0.9), "ms", len(samples)},
			"admit_ms_p50":       {median(admits), "ms", len(samples)},
		},
	}
}
