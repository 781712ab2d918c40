package value

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
	"unsafe"
)

func TestValueIsThreeWords(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 24 {
		t.Fatalf("Sizeof(Value) = %d bytes, want <= 24", n)
	}
}

// show renders a result with its kind, so NULL and 0 stay distinct.
func show(v Value) string { return fmt.Sprintf("%d:%s", v.Kind(), v) }

// TestTypedMatchesGeneric runs every container operation on the typed and
// the generic representation of the same container and requires identical
// results. Keys and elements are numbers, as callers convert them to a
// numeric declared type before any typed container sees them.
func TestTypedMatchesGeneric(t *testing.T) {
	big := UintVal(1<<63 + 5)
	keys := []Value{IntVal(3), IntVal(-3), big, Null, BoolVal(true), IntVal(0), IntVal(1)}

	dictOps := func(mk func() *DictVal) []string {
		d := mk()
		v := DictValue(d)
		var out []string
		log := func(s string) { out = append(out, s) }
		for _, k := range keys {
			log(show(d.Get(k))) // missing-key read
			log(fmt.Sprint(d.Has(k), Equal(d.Get(k), Null)))
		}
		for i, k := range keys {
			d.Set(k, IntVal(int64(10*i)))
			log(fmt.Sprint(d.Len(), show(d.Get(k)), d.Has(k), v))
		}
		cp := Copy(v)
		d.Set(IntVal(3), IntVal(99))
		log(fmt.Sprint(show(cp.Dict().Get(IntVal(3))), show(d.Get(IntVal(3))), cp, Nested(v)))
		log(fmt.Sprint(Equal(d.Get(IntVal(3)), IntVal(99)), Equal(cp.Dict().Get(IntVal(7)), Null)))
		return out
	}
	seqOps := func(kind Kind, mk func(n int) *SeqVal) []string {
		s := mk(3)
		wrap := VectorValue
		if kind == KArray {
			wrap = ArrayValue
		}
		v := wrap(s)
		var out []string
		log := func(x string) { out = append(out, x) }
		for _, i := range []int64{-1, 0, 2, 3, 100} {
			log(show(s.Get(i))) // zero and out-of-range reads
		}
		for i, e := range []Value{IntVal(7), big, IntVal(-1)} {
			s.Set(int64(i), e)
		}
		if kind == KVector {
			s.Add(IntVal(42))
			s.Add(IntVal(0))
		}
		for i := int64(-1); i <= int64(s.Len()); i++ {
			log(show(s.Get(i)))
		}
		for _, e := range []Value{IntVal(7), IntVal(8), big, Null, StrVal("42"), BoolVal(true)} {
			log(fmt.Sprint(s.Has(e)))
		}
		cp := Copy(v)
		s.Set(0, IntVal(-9))
		log(fmt.Sprint(s.Len(), v, show(cp.Seq().Get(0)), show(s.Get(0)), cp, cp.Kind(), Nested(v)))
		log(fmt.Sprint(Equal(s.Get(1), big), Equal(s.Get(100), Null), Equal(s.Get(100), IntVal(0))))
		return out
	}

	cmp := func(name string, typed, generic []string) {
		t.Helper()
		if len(typed) != len(generic) {
			t.Fatalf("%s: %d typed results, %d generic", name, len(typed), len(generic))
		}
		for i := range typed {
			if typed[i] != generic[i] {
				t.Errorf("%s step %d: typed %q, generic %q", name, i, typed[i], generic[i])
			}
		}
	}
	cmp("dict", dictOps(NewIntDict), dictOps(func() *DictVal { return NewDict(IntVal(0)) }))
	zeros := func(n int) *SeqVal {
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = IntVal(0)
		}
		return NewSeq(elems)
	}
	cmp("array", seqOps(KArray, NewIntSeq), seqOps(KArray, zeros))
	// A vector starts empty; the three slots come from adds.
	vec := func(mk func() *SeqVal) func(int) *SeqVal {
		return func(n int) *SeqVal {
			s := mk()
			for i := 0; i < n; i++ {
				s.Add(IntVal(0))
			}
			return s
		}
	}
	cmp("vector", seqOps(KVector, vec(func() *SeqVal { return NewIntSeq(0) })),
		seqOps(KVector, vec(func() *SeqVal { return NewSeq(nil) })))

	// The typed dict splits its keys between the dense segment and the
	// map; no result may reveal where a key lives.
	cmp("dense dict", denseDictOps(NewIntDict()), denseDictOps(NewDict(IntVal(0))))
	for seed := uint64(1); seed <= 20; seed++ {
		cmp(fmt.Sprint("random dict ", seed), randomDictOps(seed, NewIntDict()), randomDictOps(seed, NewDict(IntVal(0))))
	}

	// Only the typed forms expose int64 storage, and Copy keeps the form.
	if !Copy(DictValue(NewIntDict())).Dict().Typed() || Copy(DictValue(NewDict(IntVal(0)))).Dict().Typed() {
		t.Error("dict Typed reports the wrong representation")
	}
	if _, typed := Copy(VectorValue(NewIntSeq(0))).Seq().Ints(); !typed {
		t.Error("typed sequence reports generic")
	}
	if _, typed := Copy(ArrayValue(NewSeq(nil))).Seq().Ints(); typed {
		t.Error("generic sequence reports typed")
	}
}

// denseDictOps logs every observable of a dict through a key sequence
// aimed at the dense segment's edges: keys 0, 63 and 64, the growth
// bound 2·Len()+64, negative and address-like keys, zero stores, reads
// of missing keys, growth that moves map entries into the segment, and
// Copy isolation of both segments.
func denseDictOps(d *DictVal) []string {
	var out []string
	probe := func(keys ...int64) {
		for _, k := range keys {
			out = append(out, fmt.Sprint(k, " ", show(d.Get(IntVal(k))), d.Has(IntVal(k)), d.Len()))
		}
	}
	set := func(k, n int64) { d.Set(IntVal(k), IntVal(n)) }
	addr, neg := int64(0x400000), int64(-1)<<63
	probe(0, 1, 63, 64, -1, addr) // missing reads never insert
	set(0, 0)                     // an explicit zero store counts
	probe(0, 1, 63, 64)
	set(63, 7)
	set(64, 8)
	set(-1, 9)
	set(neg, 10)
	set(addr, 11)
	set(addr+8, 12)
	probe(0, 62, 63, 64, 65, 127, 128, -1, -64, neg, addr, addr+8)
	// 7 entries: the bound is 78, so 200 and 129 stay in the map.
	set(200, 13)
	set(129, 14)
	probe(128, 129, 130, 200, 255, 256)
	for k := int64(1); k <= 40; k++ {
		set(k, k*k)
	}
	// 49 entries: 130 lies below the bound 162, and its growth to 256
	// moves 129 and 200 from the map into the segment.
	set(130, 0)
	probe(1, 40, 41, 128, 129, 130, 131, 200, 255, 256, addr)
	set(200, 15)
	set(1<<40, 16) // far past the segment
	probe(200, 1<<40, 1<<40+1)

	cp := Copy(DictValue(d)).Dict()
	set(5, -5)
	set(addr, -11)
	set(300, 17)
	cp.Set(IntVal(6), IntVal(-6))
	cp.Set(IntVal(-1), IntVal(-9))
	probe(5, 6, -1, addr, 300)
	for _, k := range []int64{5, 6, -1, addr, 300} {
		out = append(out, fmt.Sprint("copy ", k, " ", show(cp.Get(IntVal(k))), cp.Has(IntVal(k)), cp.Len()))
	}
	return out
}

// randomDictOps logs every observable of a dict through a seeded random
// sequence of stores, reads, membership tests and copies over dense,
// negative and address-like keys.
func randomDictOps(seed uint64, d *DictVal) []string {
	r := rand.New(rand.NewPCG(seed, 0))
	key := func() int64 {
		switch r.IntN(4) {
		case 0:
			return r.Int64N(64)
		case 1:
			return r.Int64N(600)
		case 2:
			return -r.Int64N(100)
		}
		return 0x400000 + 8*r.Int64N(64)
	}
	var out []string
	for i := 0; i < 2000; i++ {
		k := IntVal(key())
		switch op := r.IntN(10); {
		case op < 4:
			d.Set(k, IntVal(r.Int64N(3)))
		case op < 9:
			out = append(out, fmt.Sprint(show(d.Get(k)), d.Has(k), d.Len()))
		default:
			d = Copy(DictValue(d)).Dict()
		}
	}
	return out
}

// TestDenseSegmentBounds checks where the typed dict puts its keys:
// small non-negative keys in the segment, and addresses, negative keys
// and keys past the growth bound in the map.
func TestDenseSegmentBounds(t *testing.T) {
	d := NewIntDict()
	d.Store(64, 1) // 64 is not below 2·0+64
	d.Store(-1, 1)
	d.Store(0x400000, 1)
	if len(d.dense) != 0 || len(d.ints) != 3 {
		t.Fatalf("sparse keys: %d dense, %d in the map", len(d.dense), len(d.ints))
	}
	d.Store(63, 1) // grows to cover 0–63 and moves nothing
	if len(d.dense) != 64 || len(d.ints) != 3 || d.Len() != 4 {
		t.Fatalf("after 63: %d dense, %d in the map, Len %d", len(d.dense), len(d.ints), d.Len())
	}
	d.AddTo(65, 2) // below 2·4+64: grows to 128 and moves 64
	if len(d.dense) != 128 || len(d.ints) != 2 || d.Load(64) != 1 || d.Load(65) != 2 || d.Len() != 5 {
		t.Fatalf("after 65: %d dense, %d in the map, Len %d", len(d.dense), len(d.ints), d.Len())
	}
	if d.Load(66) != 0 || d.Has(IntVal(66)) || d.Len() != 5 {
		t.Fatal("a read inserted its key")
	}
	d.AddTo(200, 3) // past the bound 74: stays in the map
	for k := int64(0); k < 128; k++ {
		d.Store(k, 0) // 131 entries: the bound is 326
	}
	d.AddTo(200, 4) // grows to 256, moving 200 in before the add
	if len(d.dense) != 256 || len(d.ints) != 2 || d.Load(200) != 7 || !d.Has(IntVal(200)) || d.Len() != 131 {
		t.Fatalf("after 200: %d dense, Load %d, Len %d", len(d.dense), d.Load(200), d.Len())
	}
	// denseDictOps grows its dict to 256 dense keys, moving 129 and 200
	// out of the map; the negative, address and far keys and 300 stay.
	d = NewIntDict()
	denseDictOps(d)
	if len(d.dense) != 256 || len(d.ints) != 6 {
		t.Fatalf("denseDictOps: %d dense, %d in the map", len(d.dense), len(d.ints))
	}
}

func TestStringRoundTrip(t *testing.T) {
	long := strings.Repeat("0123456789abcdef", 1<<12)
	f := &FileVal{Name: "in.txt"}
	f.WriteLine("0x10")
	f.WriteLine("")
	f.WriteLine(long)
	fromFile := []Value{f.GetLine(), f.GetLine(), f.GetLine()}
	cases := []struct {
		v       Value
		want    string
		wantInt int64
	}{
		{StrVal(""), "", 0},
		{StrVal(long), long, 0},
		{StrVal(long[5:9]), "5678", 5678},
		{fromFile[0], "0x10", 16},
		{fromFile[1], "", 0},
		{fromFile[2], long, 0},
	}
	for i, c := range cases {
		if c.v.Kind() != KString || c.v.Str() != c.want || c.v.String() != c.want {
			t.Errorf("case %d: round trip lost the text (%d bytes, want %d)", i, len(c.v.Str()), len(c.want))
		}
		if c.v.AsInt() != c.wantInt || c.v.AsBool() != (c.want != "") {
			t.Errorf("case %d: AsInt %d AsBool %v", i, c.v.AsInt(), c.v.AsBool())
		}
		if !Equal(c.v, StrVal(strings.Clone(c.want))) || Equal(c.v, Null) != (c.want == "") {
			t.Errorf("case %d: equality broken", i)
		}
		// A string stays intact as a generic dict key and element.
		d := NewDict(Null)
		d.Set(c.v, c.v)
		if got := d.Get(StrVal(strings.Clone(c.want))); got.Str() != c.want || !d.Has(c.v) {
			t.Errorf("case %d: dict key round trip failed", i)
		}
	}
	if n := testing.AllocsPerRun(100, func() { sink = StrVal(long).Str() }); n != 0 {
		t.Errorf("StrVal/Str allocate %v times", n)
	}
	// Non-strings have no text.
	if IntVal(5).Str() != "" || Null.Str() != "" {
		t.Error("Str of a non-string is not empty")
	}
}

var sink string
