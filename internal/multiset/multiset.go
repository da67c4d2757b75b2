// Package multiset implements the sorted real-valued multisets that
// approximate-agreement algorithms operate on, with the exact vocabulary of
// §5.1 of the paper (which in turn follows Dolev et al. and Kieckhafer &
// Azadmanesh): min, max, range ρ(V), diameter δ(V), reduction (trimming),
// subsequence selection, and mean.
//
// A Multiset is immutable and always sorted. All operations return new
// Multisets; none mutate the receiver. NaN values are rejected at
// construction because no total order contains them.
//
// A multiset received in a protocol round is stored as two ascending runs:
// the round's shared base, validated once for every receiver, and the
// receiver's own patch. The patch is either an O(f) slice (WithPatch) or a
// constant run of count copies of one value (WithRepeated), the shape of a
// broadcast row, which costs O(1) to attach. Rank queries (At, Min, Max,
// Trim, Median, Midpoint, and the ranks MeanEvery selects) find their
// element by a co-rank binary search over the two runs, O(log n) whatever
// the patch's shape, and Mean walks the elements in merge order,
// so a vote never materializes the n received values. The merge order
// breaks ties base-first, exactly as MergeSortedInto does, so every result
// is bit-identical to the same method on the merged single-run multiset.
package multiset

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"unsafe"
)

// ErrNaN is returned by the constructors, WithPatch and WithRepeated when
// an input value is NaN.
var ErrNaN = errors.New("multiset: NaN value has no place in a sorted multiset")

// Multiset is an immutable sorted multiset of real values.
//
// The zero value is the empty multiset and is ready to use.
type Multiset struct {
	// The two ascending runs, each as a pointer to its first element (nil
	// when empty) and a length. Neither run is mutated after construction.
	// The multiset is their merge, ties taken from the base first; the
	// patch is empty except on a received multiset (WithPatch,
	// WithRepeated) and the reductions of one. A negative npatch marks a
	// constant run: −npatch copies of *patch. Four words rather than two
	// slice headers' six plus a shape flag: the compiler keeps a struct of
	// at most four words in registers, while a larger one is copied
	// through memory at every call and inlined method, which roughly
	// doubled the cost of a vote over a handful of values (the small-n
	// runs of the sweep artifacts). runs rebuilds the readable form.
	base, patch   *float64
	nbase, npatch int
}

// run is a patch as the methods read it: n ascending elements, the j-th
// stride·j bytes past first. A slice patch has stride floatSize; a
// constant run has stride 0, so every element is its one value. Three
// words, so that a run and the base slice still travel in registers: a
// five-word form (a bounds-checked slice plus length and stride) doubled
// the cost of FTM's vote on a single-run multiset. Callers read only
// elements j < n.
type run struct {
	first  *float64 // element 0; nil when n is 0
	n      int
	stride uintptr
}

// floatSize is the stride of a slice patch.
const floatSize = unsafe.Sizeof(float64(0))

// at returns the run's j-th element, 0 ≤ j < n.
func (r run) at(j int) float64 {
	return *(*float64)(unsafe.Add(unsafe.Pointer(r.first), uintptr(j)*r.stride))
}

// sub returns the run's elements [i, j).
func (r run) sub(i, j int) run {
	if i == j {
		return run{}
	}
	first := unsafe.Add(unsafe.Pointer(r.first), uintptr(i)*r.stride)
	return run{first: (*float64)(first), n: j - i, stride: r.stride}
}

// of builds the multiset whose runs are a (the base) and b (the patch).
func of(a []float64, b run) Multiset {
	m := Multiset{patch: b.first, nbase: len(a), npatch: b.n}
	if len(a) > 0 {
		m.base = &a[0]
	}
	if b.stride == 0 {
		m.npatch = -b.n
	}
	return m
}

// runs returns the base run and the patch.
func (m Multiset) runs() ([]float64, run) {
	b := run{first: m.patch, n: m.npatch, stride: floatSize}
	if b.n < 0 {
		b.n, b.stride = -b.n, 0
	}
	return unsafe.Slice(m.base, m.nbase), b
}

// Len returns the cardinality |V| of the multiset.
func (m Multiset) Len() int {
	a, b := m.runs()
	return len(a) + b.n
}

// FromValues builds a Multiset from the given values. The input slice is
// copied, so the caller retains ownership. It returns ErrNaN if any value is
// NaN; infinities are permitted (a Byzantine sender may report them and the
// reduction step must be able to trim them).
func FromValues(values ...float64) (Multiset, error) {
	for _, v := range values {
		if math.IsNaN(v) {
			return Multiset{}, ErrNaN
		}
	}
	vs := make([]float64, len(values))
	copy(vs, values)
	sort.Float64s(vs)
	return of(vs, run{}), nil
}

// FromOwned builds a Multiset that takes ownership of the given slice: the
// slice is sorted in place and becomes the multiset's backing store, with no
// copy. The caller must not read or mutate the slice afterwards — except to
// overwrite and re-wrap it once the multiset itself is no longer in use,
// which is exactly the scratch-reuse pattern of the simulation hot path
// (one O(n) buffer recycled every round instead of an O(n) allocation).
// Like FromValues it rejects NaN, before mutating anything.
func FromOwned(values []float64) (Multiset, error) {
	if err := sortOwned(values); err != nil {
		return Multiset{}, err
	}
	return of(values, run{}), nil
}

// sortOwned rejects NaN, before mutating anything, then sorts values in
// place. An input that is already NaN-free and non-decreasing is accepted
// in one pass and left as it is, which is exactly what sort.Float64s would
// leave (it moves no element of a non-decreasing slice, −0/+0
// interleavings included).
func sortOwned(values []float64) error {
	prev := math.Inf(-1)
	for i, v := range values {
		if !(v >= prev) { // NaN, or a descent
			for _, v := range values[i:] {
				if math.IsNaN(v) {
					return ErrNaN
				}
			}
			sort.Float64s(values)
			return nil
		}
		prev = v
	}
	return nil
}

// MustFromValues is FromValues for statically known inputs, used by tests
// and table literals. It panics on NaN, which is a programming error in
// those contexts.
func MustFromValues(values ...float64) Multiset {
	m, err := FromValues(values...)
	if err != nil {
		panic(err)
	}
	return m
}

// WithPatch returns the received multiset m ∪ patch: m is the round's
// shared base, validated once when it was built, and patch is one
// receiver's own values. WithPatch takes ownership of patch exactly as
// FromOwned does — it rejects NaN with ErrNaN, then sorts the slice in
// place — and copies nothing, so attaching an O(f) patch to an n-value
// base costs O(f log f), or one O(f) scan when the patch arrives sorted.
// If m already carries a patch, the two are first
// merged into a fresh base (an O(n) copy off the vote path).
func (m Multiset) WithPatch(patch []float64) (Multiset, error) {
	if err := sortOwned(patch); err != nil {
		return Multiset{}, err
	}
	var b run
	if len(patch) > 0 {
		b = run{first: &patch[0], n: len(patch), stride: floatSize}
	}
	return of(m.flat(), b), nil
}

// WithRepeated returns the received multiset m ∪ {*v × count}: the patch
// is a constant run, the shape of a broadcast row, in which every
// asymmetric sender delivers the same value. It copies and allocates
// nothing, so attaching the run costs O(1) whatever count is; *v is read
// on every query and stays under the caller's ownership on WithPatch's
// terms — it must not change while the result is in use. It returns
// ErrNaN if *v is NaN and an error if count is negative. If m already
// carries a patch, it is first merged into a fresh base, as WithPatch does.
func (m Multiset) WithRepeated(v *float64, count int) (Multiset, error) {
	if math.IsNaN(*v) {
		return Multiset{}, ErrNaN
	}
	switch {
	case count < 0:
		return Multiset{}, fmt.Errorf("multiset: negative repeat count %d", count)
	case count == 0:
		return of(m.flat(), run{}), nil
	}
	return of(m.flat(), run{first: v, n: count}), nil
}

// split returns the co-rank of k in the merge of the ascending runs a and
// b: how many of its first k elements come from a (the other k−split come
// from b). It is a binary search over the O(1)-checkable merge condition,
// a-first on ties as in MergeSortedInto.
func split(a []float64, b run, k int) int {
	lo, hi := k-b.n, k
	if lo < 0 {
		lo = 0
	}
	if hi > len(a) {
		hi = len(a)
	}
	// Taking i values is consistent while a[i-1] <= b[k-i]; that holds for
	// a prefix of (lo, hi], and the co-rank is its last i.
	for lo < hi {
		i := int(uint(lo+hi+1) >> 1)
		if a[i-1] <= b.at(k-i) {
			lo = i
		} else {
			hi = i - 1
		}
	}
	return lo
}

// at returns the k-th element of the merge of the runs a and b. The
// single-run case stays small enough to inline: the multisets an adversary
// simulates and a round's bare base carry no patch.
func at(a []float64, b run, k int) float64 {
	if b.n == 0 {
		return a[k]
	}
	return atMerged(a, b, k)
}

// atMerged returns the k-th element of the merge of the runs a and b.
func atMerged(a []float64, b run, k int) float64 {
	i := split(a, b, k)
	j := k - i
	if j == b.n || (i < len(a) && a[i] <= b.at(j)) {
		return a[i]
	}
	return b.at(j)
}

// kahan is a compensated running sum: experiment sweeps average thousands
// of values whose magnitudes can differ wildly once Byzantine extremes are
// present in untrimmed diagnostics. add returns the new sum rather than
// updating it through a pointer, so a summing loop keeps it in registers.
type kahan struct{ sum, comp float64 }

func (k kahan) add(v float64) kahan {
	y := v - k.comp
	t := k.sum + y
	return kahan{sum: t, comp: (t - k.sum) - y}
}

// IsEmpty reports whether the multiset has no elements.
func (m Multiset) IsEmpty() bool { return m.Len() == 0 }

// Values returns a copy of the sorted values, the runs merged as
// MergeSortedInto merges two slices. Mutating the returned slice does not
// affect the multiset.
func (m Multiset) Values() []float64 {
	a, b := m.runs()
	out := make([]float64, 0, len(a)+b.n)
	i, j := 0, 0
	for i < len(a) && j < b.n {
		if a[i] <= b.at(j) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b.at(j))
			j++
		}
	}
	out = append(out, a[i:]...)
	for ; j < b.n; j++ {
		out = append(out, b.at(j))
	}
	return out
}

// flat returns the elements as one ascending slice in merge order: the
// backing store itself for a single-run multiset, otherwise a fresh merge
// (which only methods off the vote path need). Callers must not mutate the
// result.
func (m Multiset) flat() []float64 {
	if m.npatch == 0 {
		a, _ := m.runs()
		return a
	}
	return m.Values()
}

// At returns the i-th smallest element (0-indexed). It returns an error if
// the index is out of range, because callers index with fault-count
// arithmetic that must be validated, not trusted.
func (m Multiset) At(i int) (float64, error) {
	a, b := m.runs()
	if n := len(a) + b.n; i < 0 || i >= n {
		return 0, fmt.Errorf("multiset: index %d out of range [0,%d)", i, n)
	}
	return at(a, b, i), nil
}

// Min returns min(V), the smallest element. The second return is false for
// the empty multiset.
func (m Multiset) Min() (float64, bool) {
	a, b := m.runs()
	if len(a)+b.n == 0 {
		return 0, false
	}
	return at(a, b, 0), true
}

// Max returns max(V), the largest element. The second return is false for
// the empty multiset.
func (m Multiset) Max() (float64, bool) {
	a, b := m.runs()
	n := len(a) + b.n
	if n == 0 {
		return 0, false
	}
	return at(a, b, n-1), true
}

// Interval is a closed real interval [Lo, Hi]. It represents ρ(V), the range
// of a multiset, in the paper's notation.
type Interval struct {
	Lo, Hi float64
}

// Contains reports whether x lies in the closed interval.
func (iv Interval) Contains(x float64) bool { return iv.Lo <= x && x <= iv.Hi }

// ContainsWithin reports whether x lies in the interval widened by rel
// (relative to the interval's magnitude, floored at 1) on each side. It is
// the numerically tolerant variant used by the invariant checkers: the
// mean of k identical survivors can land an ulp outside the exact range.
func (iv Interval) ContainsWithin(x, rel float64) bool {
	scale := 1.0
	if a := math.Abs(iv.Lo); a > scale {
		scale = a
	}
	if a := math.Abs(iv.Hi); a > scale {
		scale = a
	}
	tol := rel * scale
	return iv.Lo-tol <= x && x <= iv.Hi+tol
}

// Width returns Hi − Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Range returns ρ(V) = [min(V), max(V)]. The second return is false for the
// empty multiset, whose range is undefined.
func (m Multiset) Range() (Interval, bool) {
	a, b := m.runs()
	n := len(a) + b.n
	if n == 0 {
		return Interval{}, false
	}
	return Interval{Lo: at(a, b, 0), Hi: at(a, b, n-1)}, true
}

// Diameter returns δ(V) = max(V) − min(V), the spread of the multiset.
// The diameter of an empty or singleton multiset is 0.
func (m Multiset) Diameter() float64 {
	a, b := m.runs()
	n := len(a) + b.n
	if n < 2 {
		return 0
	}
	return at(a, b, n-1) - at(a, b, 0)
}

// Mean returns the arithmetic mean of the elements, Kahan-summed in
// ascending order: a received multiset's two runs are summed in the order
// their merge would emit, without building it. The second return is false
// for the empty multiset.
func (m Multiset) Mean() (float64, bool) {
	a, b := m.runs()
	n := len(a) + b.n
	if n == 0 {
		return 0, false
	}
	var sum kahan
	i, j := 0, 0
	for i < len(a) && j < b.n {
		if a[i] <= b.at(j) {
			sum = sum.add(a[i])
			i++
		} else {
			sum = sum.add(b.at(j))
			j++
		}
	}
	for ; i < len(a); i++ {
		sum = sum.add(a[i])
	}
	for ; j < b.n; j++ {
		sum = sum.add(b.at(j))
	}
	return sum.sum / float64(n), true
}

// Median returns the median element: for odd cardinality the middle value,
// for even cardinality the mean of the two middle values. The second return
// is false for the empty multiset.
func (m Multiset) Median() (float64, bool) {
	a, b := m.runs()
	n := len(a) + b.n
	if n == 0 {
		return 0, false
	}
	if n%2 == 1 {
		return at(a, b, n/2), true
	}
	return (at(a, b, n/2-1) + at(a, b, n/2)) / 2, true
}

// Midpoint returns (min(V)+max(V))/2, the centre of ρ(V). The second return
// is false for the empty multiset.
func (m Multiset) Midpoint() (float64, bool) {
	a, b := m.runs()
	n := len(a) + b.n
	if n == 0 {
		return 0, false
	}
	return (at(a, b, 0) + at(a, b, n-1)) / 2, true
}

// Trim returns Red_τ(V): the multiset with the τ smallest and τ largest
// elements removed. This is the reduction step of every MSR algorithm; τ is
// chosen so that every possibly-erroneous value is covered. It returns an
// error if 2τ ≥ |V| (nothing would survive) or τ < 0. The result shares
// m's storage: on a received multiset it is the survivors' slice of each
// run, located by two co-rank searches, so a constant run's survivors are
// again a constant run.
func (m Multiset) Trim(tau int) (Multiset, error) {
	a, b := m.runs()
	n := len(a) + b.n
	if tau < 0 {
		return Multiset{}, fmt.Errorf("multiset: negative trim count %d", tau)
	}
	if 2*tau >= n && !(tau == 0 && n == 0) {
		return Multiset{}, fmt.Errorf("multiset: trim %d from each end of %d values leaves nothing", tau, n)
	}
	if b.n == 0 {
		return of(a[tau:n-tau], run{}), nil
	}
	lo, hi := split(a, b, tau), split(a, b, n-tau)
	return of(a[lo:hi], b.sub(tau-lo, n-tau-hi)), nil
}

// eachSelected calls visit, in order, on the elements at indices 0, step,
// 2·step, …, plus the last — the selection function of Dolev et al.'s
// averaging algorithms — looking each selected rank up directly; step ≥ 1.
// The final element is always included so the selection spans the full
// reduced range; without it the mean loses range coverage and the
// convergence-rate bound 1/⌈(m−2τ)/τ⌉ no longer holds.
func (m Multiset) eachSelected(step int, visit func(float64)) {
	a, b := m.runs()
	n := len(a) + b.n
	for k := 0; k < n; k += step {
		visit(at(a, b, k))
	}
	if n > 0 && (n-1)%step != 0 {
		visit(at(a, b, n-1))
	}
}

// MeanEvery returns the Kahan-summed mean of the every-step-th selection
// (eachSelected), without building the selection. It returns an error if
// step < 1 or the multiset is empty.
func (m Multiset) MeanEvery(step int) (float64, error) {
	if step < 1 {
		return 0, fmt.Errorf("multiset: selection step %d must be >= 1", step)
	}
	if m.IsEmpty() {
		return 0, errors.New("multiset: empty selection has no mean")
	}
	var sum kahan
	count := 0
	m.eachSelected(step, func(v float64) {
		sum = sum.add(v)
		count++
	})
	return sum.sum / float64(count), nil
}

// MergeSortedInto appends the linear merge of the two ascending slices a
// and b to dst and returns the extended slice — the order Values and every
// rank lookup read a received multiset's two runs in. Ties take a's element
// first; since tied float64s are bit-identical (NaN is excluded upstream
// and ±0.0 are interchangeable in every downstream reduction), the output
// is the same ascending value sequence a full sort of the concatenation
// yields. Callers pass dst with length 0 and sufficient capacity to stay
// allocation-free.
func MergeSortedInto(dst, a, b []float64) []float64 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}

// Add returns a new multiset with v added. It returns an error for NaN.
func (m Multiset) Add(v float64) (Multiset, error) {
	if math.IsNaN(v) {
		return Multiset{}, ErrNaN
	}
	vs := m.flat()
	i := sort.SearchFloat64s(vs, v)
	out := make([]float64, 0, len(vs)+1)
	out = append(out, vs[:i]...)
	out = append(out, v)
	out = append(out, vs[i:]...)
	return of(out, run{}), nil
}

// Equal reports whether the two multisets contain exactly the same values
// with the same multiplicities.
func (m Multiset) Equal(other Multiset) bool {
	a, b := m.flat(), other.flat()
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if b[i] != v {
			return false
		}
	}
	return true
}

// String renders the multiset as "{v1, v2, …}" in sorted order, the form
// used by the paper's lower-bound proofs (e.g. "{0,0,1}").
func (m Multiset) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, v := range m.flat() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%g", v)
	}
	b.WriteByte('}')
	return b.String()
}
