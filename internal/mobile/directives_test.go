package mobile

import (
	"math"
	"strings"
	"testing"
)

// newDirectives builds a sealed script with two scripted senders over n
// receivers: process 0, a live agent, and process 4, an M3 queue.
func newDirectives(n int) *Directives {
	d := &Directives{}
	d.Reset(n)
	d.AddSender(0, false)
	d.AddSender(4, true)
	d.Seal()
	return d
}

func TestDirectivesDefaultsToOmission(t *testing.T) {
	d := newDirectives(7)
	if d.Len() != 2 || d.N() != 7 {
		t.Fatalf("Len=%d N=%d, want 2, 7", d.Len(), d.N())
	}
	if d.Sender(0) != 0 || d.Sender(1) != 4 || d.IsQueue(0) || !d.IsQueue(1) {
		t.Fatalf("sender/queue bookkeeping wrong: senders (%d,%d) queue (%v,%v)",
			d.Sender(0), d.Sender(1), d.IsQueue(0), d.IsQueue(1))
	}
	for k := 0; k < d.Len(); k++ {
		for r := 0; r < d.N(); r++ {
			if _, omit := d.At(k, r); !omit {
				t.Fatalf("entry (%d,%d) not omitted after Seal", k, r)
			}
		}
	}
}

func TestDirectivesSetAndReuse(t *testing.T) {
	d := newDirectives(7)
	d.Set(0, 3, 0.5)
	d.Set(1, 3, 0.7)
	d.Set(1, 6, math.NaN()) // NaN sanitises to an omission
	d.Omit(0, 3)            // explicit omission after a Set

	if v, omit := d.At(1, 3); omit || v != 0.7 {
		t.Fatalf("At(1,3) = (%v, %v), want (0.7, false)", v, omit)
	}
	if _, omit := d.At(1, 6); !omit {
		t.Fatal("NaN Set did not record an omission")
	}
	if _, omit := d.At(0, 3); !omit {
		t.Fatal("Omit after Set did not stick")
	}
	if row := d.AppendRow(nil, 3); len(row) != 1 || row[0] != 0.7 {
		t.Fatalf("AppendRow(3) = %v, want [0.7]", row)
	}

	// Reuse: a Reset/Seal cycle must fully clear the previous round.
	d.Reset(7)
	d.AddSender(2, false)
	d.Seal()
	if d.Len() != 1 || d.Sender(0) != 2 {
		t.Fatalf("after reuse: Len=%d Sender(0)=%d", d.Len(), d.Sender(0))
	}
	if _, omit := d.At(0, 3); !omit {
		t.Fatal("reused block leaked a directive from the previous round")
	}
}

// TestDirectivesRowOrder pins the order-dependent cases of the row forms:
// a Set or Omit after SetRow changes one entry and keeps the rest of the
// broadcast, a SetRow after Set replaces the whole row, and a NaN row is
// omitted; Row reports the resulting form. Senders 0 and 1 are scripted;
// every case works on receiver 3.
func TestDirectivesRowOrder(t *testing.T) {
	const none = -1.0 // marks an omitted entry in want
	cases := []struct {
		name  string
		write func(d *Directives)
		want  [2]float64
		kind  RowKind
	}{
		{"SetRow", func(d *Directives) { d.SetRow(3, 0.5) }, [2]float64{0.5, 0.5}, RowBroadcast},
		{"SetRow then Set", func(d *Directives) { d.SetRow(3, 0.5); d.Set(1, 3, 0.7) }, [2]float64{0.5, 0.7}, RowExplicit},
		{"SetRow then Omit", func(d *Directives) { d.SetRow(3, 0.5); d.Omit(0, 3) }, [2]float64{none, 0.5}, RowExplicit},
		{"SetRow then Set NaN", func(d *Directives) { d.SetRow(3, 0.5); d.Set(1, 3, math.NaN()) }, [2]float64{0.5, none}, RowExplicit},
		{"Set then SetRow", func(d *Directives) { d.Set(0, 3, 0.7); d.Omit(1, 3); d.SetRow(3, 0.5) }, [2]float64{0.5, 0.5}, RowBroadcast},
		{"Set on an omitted row", func(d *Directives) { d.Set(1, 3, 0.7) }, [2]float64{none, 0.7}, RowExplicit},
		{"SetRow NaN", func(d *Directives) { d.SetRow(3, math.NaN()) }, [2]float64{none, none}, RowOmitted},
		{"SetRow then SetRow NaN", func(d *Directives) { d.SetRow(3, 0.5); d.SetRow(3, math.NaN()) }, [2]float64{none, none}, RowOmitted},
		{"Set then SetRow NaN", func(d *Directives) { d.Set(0, 3, 0.7); d.SetRow(3, math.NaN()) }, [2]float64{none, none}, RowOmitted},
	}
	for _, c := range cases {
		d := newDirectives(7)
		c.write(d)
		var row []float64
		for k, w := range c.want {
			v, omit := d.At(k, 3)
			if omit != (w == none) || (!omit && v != w) {
				t.Errorf("%s: At(%d, 3) = (%v, %v), want %v", c.name, k, v, omit, w)
			}
			if w != none {
				row = append(row, w)
			}
		}
		if got := d.AppendRow(nil, 3); !equalFloats(got, row) {
			t.Errorf("%s: AppendRow(3) = %v, want %v", c.name, got, row)
		}
		if _, _, kind := d.Row(3); kind != c.kind {
			t.Errorf("%s: Row(3) kind = %d, want %d", c.name, kind, c.kind)
		}
		for r := 0; r < d.N(); r++ { // no other row was touched
			if got := d.AppendRow(nil, r); r != 3 && len(got) != 0 {
				t.Errorf("%s: AppendRow(%d) = %v, want []", c.name, r, got)
			}
		}
	}
}

// TestDirectivesRangeChecks pins that an out-of-range sender index or
// receiver panics instead of addressing a neighbouring row.
func TestDirectivesRangeChecks(t *testing.T) {
	d := newDirectives(7) // 2 senders, 7 receivers
	bad := []struct{ k, r int }{{2, 0}, {-1, 0}, {0, 7}, {0, -1}, {2, 7}}
	for _, b := range bad {
		mustPanicRange(t, "Set", func() { d.Set(b.k, b.r, 1) })
		mustPanicRange(t, "Omit", func() { d.Omit(b.k, b.r) })
		mustPanicRange(t, "At", func() { d.At(b.k, b.r) })
	}
	mustPanicRange(t, "SetRow", func() { d.SetRow(7, 1) })
	mustPanicRange(t, "AppendRow", func() { d.AppendRow(nil, -1) })
	mustPanicRange(t, "Row", func() { d.Row(7) })
	for k := 0; k < d.Len(); k++ {
		if _, omit := d.At(k, 0); !omit {
			t.Fatalf("a rejected call wrote entry (%d, 0)", k)
		}
	}
}

func mustPanicRange(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg, _ := recover().(string)
		if !strings.Contains(msg, "out of range") {
			t.Errorf("%s: panic %q, want an out-of-range panic", name, msg)
		}
	}()
	f()
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// directivesPalette is the value pool of FuzzDirectives: both zeros, both
// infinities, and NaN (which must read back as an omission).
var directivesPalette = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, math.Inf(1), math.Inf(-1), math.NaN()}

// FuzzDirectives drives a random stream of SetRow, Set and Omit calls over
// two consecutive Reset/AddSender/Seal rounds and checks every At, Row and
// AppendRow against a dense receiver-by-sender reference. The second round
// reuses the first round's buffers, so an explicit row of round one that
// leaked into round two shows up as a mismatch.
func FuzzDirectives(f *testing.F) {
	f.Add(uint8(7), uint8(2), uint8(4), uint8(3), []byte{0, 3, 2, 1, 3, 4}, []byte{0, 1, 0})
	f.Add(uint8(5), uint8(3), uint8(9), uint8(1), []byte{1, 0, 1, 6, 2, 5, 2, 2, 7}, []byte{4, 4, 1, 0, 8, 7})
	f.Add(uint8(4), uint8(2), uint8(4), uint8(2), []byte{5, 1, 3, 9, 1, 2}, []byte{0, 1, 2})
	f.Add(uint8(3), uint8(0), uint8(6), uint8(4), []byte{0, 2, 4}, []byte{1, 5, 6, 0, 5, 7, 2, 5, 0})
	f.Fuzz(func(t *testing.T, n1, m1, n2, m2 uint8, ops1, ops2 []byte) {
		d := &Directives{}
		fuzzDirectivesRound(t, d, 1+int(n1%12), int(m1%6), ops1)
		fuzzDirectivesRound(t, d, 1+int(n2%12), int(m2%6), ops2)
	})
}

// fuzzDirectivesRound runs one round of FuzzDirectives: n receivers, m
// senders, and one operation per three bytes of ops (kind and sender,
// receiver, palette value).
func fuzzDirectivesRound(t *testing.T, d *Directives, n, m int, ops []byte) {
	t.Helper()
	d.Reset(n)
	for k := 0; k < m; k++ {
		d.AddSender(2*k+1, k%2 == 1)
	}
	d.Seal()
	type entry struct {
		v    float64
		omit bool
	}
	ref := make([][]entry, n)
	for r := range ref {
		ref[r] = make([]entry, m)
		for k := range ref[r] {
			ref[r][k].omit = true
		}
	}
	for ; len(ops) >= 3; ops = ops[3:] {
		r := int(ops[1]) % n
		v := directivesPalette[int(ops[2])%len(directivesPalette)]
		e := entry{v: v, omit: math.IsNaN(v)}
		if ops[0]%3 == 0 {
			d.SetRow(r, v)
			for k := range ref[r] {
				ref[r][k] = e
			}
			continue
		}
		if m == 0 {
			continue
		}
		k := int(ops[0]/3) % m
		if ops[0]%3 == 1 {
			d.Set(k, r, v)
		} else {
			d.Omit(k, r)
			e = entry{omit: true}
		}
		ref[r][k] = e
	}
	prefix := []float64{42}
	for r := 0; r < n; r++ {
		want := prefix
		for k := 0; k < m; k++ {
			v, omit := d.At(k, r)
			e := ref[r][k]
			if omit != e.omit || (!omit && math.Float64bits(v) != math.Float64bits(e.v)) {
				t.Fatalf("n=%d m=%d: At(%d, %d) = (%v, %v), want (%v, %v)", n, m, k, r, v, omit, e.v, e.omit)
			}
			if !e.omit {
				want = append(want, e.v)
			}
		}
		// Odd rows append into spare capacity, even rows must grow dst.
		dst := append(make([]float64, 0, 1+r%2*m), prefix...)
		if got := d.AppendRow(dst, r); !equalFloats(got, want) {
			t.Fatalf("n=%d m=%d: AppendRow(%d) = %v, want %v", n, m, r, got, want)
		}
		// Row's form must describe the same delivered values.
		switch v, count, kind := d.Row(r); kind {
		case RowBroadcast:
			row := prefix
			for range count {
				row = append(row, *v)
			}
			if count != m || !equalFloats(row, want) {
				t.Fatalf("n=%d m=%d: Row(%d) = broadcast %v×%d, want %v", n, m, r, *v, count, want)
			}
		case RowOmitted:
			if v != nil || count != 0 || len(want) != len(prefix) {
				t.Fatalf("n=%d m=%d: Row(%d) = omitted (%v, %d), want %v", n, m, r, v, count, want)
			}
		case RowExplicit:
			if v != nil || count != 0 {
				t.Fatalf("n=%d m=%d: Row(%d) = explicit (%v, %d), want nil, 0", n, m, r, v, count)
			}
		}
	}
}
