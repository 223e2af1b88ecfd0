// Package stats provides the small statistical toolkit used throughout the
// insomnia reproduction: streaming moments, histograms, empirical CDFs,
// quantiles and time-binned series. Everything is deterministic and
// allocation-conscious; no third-party dependencies.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford accumulates mean and variance in a single streaming pass using
// Welford's numerically stable recurrence.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of samples seen.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 when fewer than two samples).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the unbiased sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Merge combines another accumulator into this one (parallel Welford).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	mean := w.mean + d*float64(o.n)/float64(n)
	m2 := w.m2 + o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.n, w.mean, w.m2 = n, mean, m2
}

// Histogram is a fixed-width bin histogram over [Min, Max). Values outside
// the range are clamped into the first/last bin so totals are preserved,
// which matches how the paper's Fig 4 folds everything above 60 s into the
// ">60" bin.
type Histogram struct {
	Min, Max float64
	Counts   []float64 // weight per bin
	total    float64
}

// NewHistogram creates a histogram with bins equal-width bins over [min,max).
func NewHistogram(min, max float64, bins int) *Histogram {
	if bins <= 0 || max <= min {
		panic(fmt.Sprintf("stats: invalid histogram [%v,%v) bins=%d", min, max, bins))
	}
	return &Histogram{Min: min, Max: max, Counts: make([]float64, bins)}
}

// AddWeighted adds weight w at value x.
func (h *Histogram) AddWeighted(x, w float64) {
	i := int((x - h.Min) / (h.Max - h.Min) * float64(len(h.Counts)))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i] += w
	h.total += w
}

// Add adds a unit-weight observation.
func (h *Histogram) Add(x float64) { h.AddWeighted(x, 1) }

// Total returns the total accumulated weight.
func (h *Histogram) Total() float64 { return h.total }

// Fractions returns per-bin weight divided by total weight. A zero histogram
// returns all zeros.
func (h *Histogram) Fractions() []float64 {
	f := make([]float64, len(h.Counts))
	if h.total == 0 {
		return f
	}
	for i, c := range h.Counts {
		f[i] = c / h.total
	}
	return f
}

// BinLabel formats the i-th bin as "lo-hi" using the given printf verb.
func (h *Histogram) BinLabel(i int) string {
	w := (h.Max - h.Min) / float64(len(h.Counts))
	return fmt.Sprintf("%g-%g", h.Min+float64(i)*w, h.Min+float64(i+1)*w)
}

// ECDF is an empirical cumulative distribution function over a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF copies and sorts the sample. The input slice is not modified.
func NewECDF(sample []float64) *ECDF {
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// At returns P(X <= x).
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-th quantile (0<=q<=1) using nearest-rank.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	i := int(math.Ceil(q*float64(len(e.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return e.sorted[i]
}

// Values returns the sorted sample (shared slice; treat as read-only).
func (e *ECDF) Values() []float64 { return e.sorted }

// Quantile computes the q-th quantile of sample by nearest rank without
// building an ECDF. The input slice is not modified.
func Quantile(sample []float64, q float64) float64 {
	return NewECDF(sample).Quantile(q)
}

// Mean returns the arithmetic mean of the sample (NaN for empty).
func Mean(sample []float64) float64 {
	if len(sample) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range sample {
		s += x
	}
	return s / float64(len(sample))
}

// Median returns the 50th percentile by nearest rank.
func Median(sample []float64) float64 { return Quantile(sample, 0.5) }

// TimeSeries accumulates (t, value) observations into fixed-width time bins
// and reports per-bin means. It is the workhorse behind all the "X over the
// day" figures.
type TimeSeries struct {
	Start, End float64 // time range covered, seconds
	binWidth   float64
	sum        []float64
	n          []int
}

// NewTimeSeries bins [start,end) into nbins equal-width bins.
func NewTimeSeries(start, end float64, nbins int) *TimeSeries {
	if nbins <= 0 || end <= start {
		panic(fmt.Sprintf("stats: invalid time series [%v,%v) bins=%d", start, end, nbins))
	}
	return &TimeSeries{
		Start: start, End: end,
		binWidth: (end - start) / float64(nbins),
		sum:      make([]float64, nbins),
		n:        make([]int, nbins),
	}
}

// Add records value v at time t. Out-of-range samples are dropped.
func (ts *TimeSeries) Add(t, v float64) {
	i := int((t - ts.Start) / ts.binWidth)
	if i < 0 || i >= len(ts.sum) {
		return
	}
	ts.sum[i] += v
	ts.n[i]++
}

// Bins returns the number of bins.
func (ts *TimeSeries) Bins() int { return len(ts.sum) }

// BinTime returns the midpoint time of bin i.
func (ts *TimeSeries) BinTime(i int) float64 {
	return ts.Start + (float64(i)+0.5)*ts.binWidth
}

// MeanAt returns the mean of bin i (0 if empty).
func (ts *TimeSeries) MeanAt(i int) float64 {
	if ts.n[i] == 0 {
		return 0
	}
	return ts.sum[i] / float64(ts.n[i])
}

// Merge adds another compatible series bin-wise.
func (ts *TimeSeries) Merge(o *TimeSeries) error {
	if o.Start != ts.Start || o.End != ts.End || len(o.sum) != len(ts.sum) {
		return fmt.Errorf("stats: incompatible time series merge")
	}
	for i := range ts.sum {
		ts.sum[i] += o.sum[i]
		ts.n[i] += o.n[i]
	}
	return nil
}
