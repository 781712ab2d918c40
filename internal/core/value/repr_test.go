package value

import (
	"fmt"
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

	// Only the typed forms expose int64 storage, and Copy keeps the form.
	if Copy(DictValue(NewIntDict())).Dict().Ints() == nil || Copy(DictValue(NewDict(IntVal(0)))).Dict().Ints() != nil {
		t.Error("dict Ints reports the wrong representation")
	}
	if _, typed := Copy(VectorValue(NewIntSeq(0))).Seq().Ints(); !typed {
		t.Error("typed sequence reports generic")
	}
	if _, typed := Copy(ArrayValue(NewSeq(nil))).Seq().Ints(); typed {
		t.Error("generic sequence reports typed")
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
