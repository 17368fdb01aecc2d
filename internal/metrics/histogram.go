package metrics

import (
	"fmt"
	"math/bits"
	"strconv"
	"sync/atomic"
	"time"
)

// HistKind identifies one of the engine's latency distributions. The
// paper's §7.4 table reports CPU *shares*; shares hide tails, and tails
// are where an interactive tool's feel lives — one 50ms wakeup hurts more
// than a thousand 5µs ones. The histograms complement the share table
// with percentile views of the three spans that dominate an expect loop.
type HistKind int

const (
	// HistWakeupToMatch: one match attempt of an expect call, from its
	// start to the pattern-scan verdict. Attempts run at admission, after
	// each ingest of new bytes (a pump read, a shard sweep) and at the
	// deadline, so the count is attempts, not caller wakeups.
	HistWakeupToMatch HistKind = iota
	// HistReadToWakeup: the handoff, from the arrival of the chunk whose
	// ingest resolved a parked expect call to that call's caller running
	// again. One observation per call that parked and was resolved by
	// new bytes.
	HistReadToWakeup
	// HistEvalDispatch: one Tcl command dispatch (lookup + execution).
	HistEvalDispatch

	numHists
)

var histNames = [numHists]string{
	"wakeup-to-match",
	"read-to-wakeup",
	"eval-dispatch",
}

func (k HistKind) String() string {
	if k < 0 || k >= numHists {
		return fmt.Sprintf("hist-%d", int(k))
	}
	return histNames[k]
}

// HistKinds lists all histogram kinds in report order.
func HistKinds() []HistKind {
	out := make([]HistKind, numHists)
	for i := range out {
		out[i] = HistKind(i)
	}
	return out
}

// histBuckets log2 buckets cover 1ns .. ~9 minutes (2^39 ns); anything
// above clamps into the last bucket. Bucket i holds durations whose
// nanosecond count has bit-length i, i.e. [2^(i-1), 2^i) ns; bucket 0
// holds zero-or-negative observations.
const histBuckets = 40

func histIndex(ns int64) int {
	if ns <= 0 {
		return 0
	}
	i := bits.Len64(uint64(ns))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// bucketLow/bucketHigh bound bucket i. High is exclusive (the next power
// of two), which is also what reports print: "count of wakeups under 4µs".
func bucketLow(i int) time.Duration {
	if i <= 0 {
		return 0
	}
	return time.Duration(int64(1) << uint(i-1))
}

func bucketHigh(i int) time.Duration {
	return time.Duration(int64(1) << uint(i))
}

// Histogram is a fixed-size log2-bucketed latency histogram. Observe is
// lock-free (atomic adds into preallocated buckets, zero allocation), so
// it is safe on the engine's hot per-wakeup path. A nil *Histogram is a
// valid no-op sink, matching the Profiler/Counters convention.
type Histogram struct {
	count  atomic.Int64
	sum    atomic.Int64
	maxNS  atomic.Int64
	bucket [histBuckets]atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one duration. Safe on a nil receiver; zero allocation.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.bucket[histIndex(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		old := h.maxNS.Load()
		if ns <= old || h.maxNS.CompareAndSwap(old, ns) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Mean returns the arithmetic mean of all observations (0 when empty).
func (h *Histogram) Mean() time.Duration {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Max returns the largest observation (exact, not bucketed).
func (h *Histogram) Max() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.maxNS.Load())
}

// Percentile returns an upper bound for the p-quantile (0 < p <= 1): the
// exclusive upper edge of the bucket the quantile falls in, except the
// top bucket, where the exact maximum is tighter. Concurrent Observe
// calls make the walk approximate by at most the in-flight observations.
func (h *Histogram) Percentile(p float64) time.Duration {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := int64(p * float64(n))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.bucket[i].Load()
		if seen >= target {
			if i == histBuckets-1 {
				return h.Max()
			}
			return bucketHigh(i)
		}
	}
	return h.Max()
}

// Merge folds src's observations into h without locking either side:
// bucket counts, count, and sum are transferred with atomic adds, and the
// maximum with the same CAS loop Observe uses. Merging while either
// histogram is being observed is safe and approximate by at most the
// in-flight observations (the Percentile contract); src is not modified.
// Safe when either receiver or src is nil.
func (h *Histogram) Merge(src *Histogram) {
	if h == nil || src == nil {
		return
	}
	for i := 0; i < histBuckets; i++ {
		if c := src.bucket[i].Load(); c != 0 {
			h.bucket[i].Add(c)
		}
	}
	if c := src.count.Load(); c != 0 {
		h.count.Add(c)
	}
	if s := src.sum.Load(); s != 0 {
		h.sum.Add(s)
	}
	ns := src.maxNS.Load()
	for {
		old := h.maxNS.Load()
		if ns <= old || h.maxNS.CompareAndSwap(old, ns) {
			return
		}
	}
}

// Reset clears the histogram.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.maxNS.Store(0)
	for i := range h.bucket {
		h.bucket[i].Store(0)
	}
}

// HistBucket is one non-empty row of a histogram snapshot. High is the
// exclusive upper edge of the bucket.
type HistBucket struct {
	Low   time.Duration
	High  time.Duration
	Count int64
}

// Snapshot returns the non-empty buckets in ascending duration order.
func (h *Histogram) Snapshot() []HistBucket {
	if h == nil {
		return nil
	}
	var out []HistBucket
	for i := 0; i < histBuckets; i++ {
		if c := h.bucket[i].Load(); c > 0 {
			out = append(out, HistBucket{Low: bucketLow(i), High: bucketHigh(i), Count: c})
		}
	}
	return out
}

// HistSummary is the JSON-ready digest of one histogram, used by
// benchreport's BENCH_*.json trajectory files and experiment records.
type HistSummary struct {
	Name    string       `json:"name"`
	Count   int64        `json:"count"`
	MeanNS  int64        `json:"mean_ns"`
	P50NS   int64        `json:"p50_ns"`
	P90NS   int64        `json:"p90_ns"`
	P99NS   int64        `json:"p99_ns"`
	MaxNS   int64        `json:"max_ns"`
	Buckets []HistBucket `json:"-"`
}

// Summary digests the histogram under the given name.
func (h *Histogram) Summary(name string) HistSummary {
	return HistSummary{
		Name:    name,
		Count:   h.Count(),
		MeanNS:  int64(h.Mean()),
		P50NS:   int64(h.Percentile(0.50)),
		P90NS:   int64(h.Percentile(0.90)),
		P99NS:   int64(h.Percentile(0.99)),
		MaxNS:   int64(h.Max()),
		Buckets: h.Snapshot(),
	}
}

// Report renders the bucket table (ascending, shared aligned format).
func (h *Histogram) Report() string {
	snap := h.Snapshot()
	if len(snap) == 0 {
		return ""
	}
	n := h.Count()
	var t alignedTable
	t.row("bucket", "count", "share")
	for _, b := range snap {
		t.row("<"+b.High.String(),
			strconv.FormatInt(b.Count, 10),
			fmt.Sprintf("%.1f%%", float64(b.Count)/float64(n)*100))
	}
	return t.String()
}
