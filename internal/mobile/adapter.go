package mobile

// PairAdversary is the per-pair form of an adversary: instead of scripting
// a whole send phase, it answers one (sender, receiver) pair per call.
// Name, Place and LeaveBehind are Adversary's; Adapt lifts a PairAdversary
// to an Adversary. The same no-mutation, no-retention contract holds.
type PairAdversary interface {
	// Name is the identifier used by flags and reports.
	Name() string

	// Place is Adversary.Place.
	Place(v *View) []int

	// LeaveBehind is Adversary.LeaveBehind.
	LeaveBehind(v *View, p int) float64

	// FaultyValue returns the value the faulty process sends to receiver
	// in this round's send phase, or omit=true to send nothing. A NaN
	// value is an omission too.
	FaultyValue(v *View, faulty, receiver int) (value float64, omit bool)

	// QueueValue returns the value cured process `cured` sends to receiver
	// out of its agent-prepared outgoing queue (M3 only), or omit=true for
	// silence. A NaN value is an omission too.
	QueueValue(v *View, cured, receiver int) (value float64, omit bool)
}

// Adapter lifts a PairAdversary to an Adversary. Its RoundDirectives asks
// the per-pair methods for every scripted entry in a pinned order —
// senders ascending, then receivers ascending within each sender — so a
// randomized per-pair adversary draws its Rng stream identically on every
// run.
type Adapter struct {
	inner PairAdversary
}

// Adapt lifts a per-pair adversary to an Adversary.
func Adapt(a PairAdversary) *Adapter { return &Adapter{inner: a} }

// Unwrap returns the wrapped per-pair adversary. Marker interfaces
// (Stateful, ViewRetainer) are looked up through it — see IsStateful and
// RetainsViews.
func (ad *Adapter) Unwrap() PairAdversary { return ad.inner }

// Name implements Adversary.
func (ad *Adapter) Name() string { return ad.inner.Name() }

// Place implements Adversary.
func (ad *Adapter) Place(v *View) []int { return ad.inner.Place(v) }

// LeaveBehind implements Adversary.
func (ad *Adapter) LeaveBehind(v *View, p int) float64 { return ad.inner.LeaveBehind(v, p) }

// RoundDirectives implements Adversary by pulling every pair through the
// wrapped adversary in the pinned order: senders ascending (the order the
// engine registered them), receivers ascending within each sender,
// QueueValue for M3 queues and FaultyValue for live agents.
func (ad *Adapter) RoundDirectives(rv *RoundView, d *Directives) {
	v := rv.View
	for k, m := 0, d.Len(); k < m; k++ {
		s := d.Sender(k)
		value := ad.inner.FaultyValue
		if d.IsQueue(k) {
			value = ad.inner.QueueValue
		}
		for r := 0; r < d.n; r++ {
			if val, omit := value(v, s, r); !omit {
				d.Set(k, r, val)
			}
		}
	}
}

var _ Adversary = (*Adapter)(nil)
