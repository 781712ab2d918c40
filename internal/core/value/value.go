// Package value implements the Cinnamon runtime value model used by both
// the analysis stage (instrumentation-time evaluation) and the execution
// stage (instrumented actions): numbers, booleans, strings/lines, opcode
// and operand handles, NULL, dicts, vectors, static arrays, file handles,
// and control-flow-element references.
//
// A Value is three words — a kind, an int64 payload and one pointer — and
// its layout is private to this package. Containers come in two
// representations, chosen once when the container is created: a typed
// one (int64 storage for a dict with numeric keys and elements, dense
// for small non-negative keys, and []int64 for a vector or array of
// numbers) and a generic one holding Values. Every method serves both,
// with identical results.
package value

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"unsafe"

	"repro/internal/cfg"
	"repro/internal/core/ast"
	"repro/internal/isa"
)

// Kind classifies a runtime value.
type Kind int

// Value kinds.
const (
	KNull Kind = iota
	KInt       // all numeric types share one representation
	KBool
	KString // strings and lines
	KOpcode
	KOperand
	KDict
	KVector
	KArray
	KFile
	KCFE
)

// Value is a Cinnamon runtime value. The payload n holds the number of
// KInt, 0/1 of KBool, the opcode of KOpcode and the byte length of
// KString, and is zero for every other kind — which makes n the integer
// coercion of every kind but KString. The pointer p holds the string
// data of KString and the referent of KOperand, the container kinds,
// KFile and KCFE.
type Value struct {
	kind Kind
	n    int64
	p    unsafe.Pointer
}

// Null is the NULL value.
var Null = Value{}

// IntVal returns a numeric value.
func IntVal(v int64) Value { return Value{kind: KInt, n: v} }

// UintVal returns a numeric value from an unsigned word.
func UintVal(v uint64) Value { return Value{kind: KInt, n: int64(v)} }

// BoolVal returns a boolean value.
func BoolVal(b bool) Value {
	if b {
		return Value{kind: KBool, n: 1}
	}
	return Value{kind: KBool}
}

// StrVal returns a string value; it shares s's bytes.
func StrVal(s string) Value {
	return Value{kind: KString, n: int64(len(s)), p: unsafe.Pointer(unsafe.StringData(s))}
}

// OpcodeVal returns an opcode value.
func OpcodeVal(op isa.Op) Value { return Value{kind: KOpcode, n: int64(op)} }

// noOperand stands for an absent operand (KindNone).
var noOperand isa.Operand

// OperandVal returns an operand-handle value referring to op, normally an
// element of its instruction's Ops; nil is the absent operand.
func OperandVal(op *isa.Operand) Value {
	if op == nil {
		op = &noOperand
	}
	return Value{kind: KOperand, p: unsafe.Pointer(op)}
}

// DictValue wraps a dict as a value.
func DictValue(d *DictVal) Value { return Value{kind: KDict, p: unsafe.Pointer(d)} }

// VectorValue wraps a sequence as a vector value.
func VectorValue(s *SeqVal) Value { return Value{kind: KVector, p: unsafe.Pointer(s)} }

// ArrayValue wraps a sequence as a static-array value.
func ArrayValue(s *SeqVal) Value { return Value{kind: KArray, p: unsafe.Pointer(s)} }

// FileValue wraps a file handle as a value.
func FileValue(f *FileVal) Value { return Value{kind: KFile, p: unsafe.Pointer(f)} }

// CFEVal wraps a CFE reference as a value.
func CFEVal(r *CFERef) Value { return Value{kind: KCFE, p: unsafe.Pointer(r)} }

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.kind }

// Str returns the text of a KString value ("" for any other kind).
func (v Value) Str() string {
	if v.kind != KString {
		return ""
	}
	return unsafe.String((*byte)(v.p), int(v.n))
}

// Opcode returns the opcode of a KOpcode value (Nop for any other kind).
func (v Value) Opcode() isa.Op {
	if v.kind != KOpcode {
		return isa.Nop
	}
	return isa.Op(v.n)
}

// Operand returns the operand of a KOperand value (the absent operand for
// any other kind).
func (v Value) Operand() isa.Operand {
	if v.kind != KOperand {
		return noOperand
	}
	return *(*isa.Operand)(v.p)
}

// Dict returns the dict of a KDict value, nil for any other kind.
func (v Value) Dict() *DictVal {
	if v.kind != KDict {
		return nil
	}
	return (*DictVal)(v.p)
}

// Seq returns the elements of a KVector or KArray value, nil for any
// other kind.
func (v Value) Seq() *SeqVal {
	if v.kind != KVector && v.kind != KArray {
		return nil
	}
	return (*SeqVal)(v.p)
}

// File returns the handle of a KFile value, nil for any other kind.
func (v Value) File() *FileVal {
	if v.kind != KFile {
		return nil
	}
	return (*FileVal)(v.p)
}

// CFE returns the reference of a KCFE value, nil for any other kind.
func (v Value) CFE() *CFERef {
	if v.kind != KCFE {
		return nil
	}
	return (*CFERef)(v.p)
}

// AsInt coerces the value to an integer: numbers are themselves, bools are
// 0/1, NULL is 0, and strings/lines parse as decimal or hex (0 if
// unparseable — loose, like the paper's examples that feed file lines into
// address vectors).
func (v Value) AsInt() int64 {
	if v.kind == KString {
		return v.parseInt()
	}
	return v.n
}

// Int is AsInt for a value known not to be a KString, such as the
// content of a numeric-typed slot: the payload itself, with no kind
// check, so that it inlines into the smallest callers.
func (v Value) Int() int64 { return v.n }

// parseInt is AsInt's string case, kept out of line so AsInt inlines.
//
//go:noinline
func (v Value) parseInt() int64 {
	n, err := strconv.ParseInt(v.Str(), 0, 64)
	if err != nil {
		return 0
	}
	return n
}

// AsBool coerces the value to a condition: booleans are themselves,
// numbers are non-zero, NULL is false, strings are non-empty.
func (v Value) AsBool() bool {
	switch v.kind {
	case KBool, KInt, KString:
		return v.n != 0
	case KNull:
		return false
	}
	return true
}

// String renders the value for print().
func (v Value) String() string {
	switch v.kind {
	case KNull:
		return "NULL"
	case KInt:
		return strconv.FormatInt(v.n, 10)
	case KBool:
		return strconv.FormatBool(v.n != 0)
	case KString:
		return v.Str()
	case KOpcode:
		return v.Opcode().String()
	case KOperand:
		return v.Operand().String()
	case KDict:
		return fmt.Sprintf("dict(%d entries)", v.Dict().Len())
	case KVector:
		return fmt.Sprintf("vector(%d elements)", v.Seq().Len())
	case KArray:
		return fmt.Sprintf("array[%d]", v.Seq().Len())
	case KFile:
		return fmt.Sprintf("file(%s)", v.File().Name)
	case KCFE:
		return v.CFE().String()
	}
	return "<invalid>"
}

// Equal implements == for Cinnamon values. NULL equals NULL, numeric
// zero, and the empty string (so `dictlookup != NULL` detects missing
// entries, as Figure 7 relies on).
func Equal(a, b Value) bool {
	if a.kind == KNull || b.kind == KNull {
		x := a
		if a.kind == KNull {
			x = b
		}
		switch x.kind {
		case KNull, KInt, KString, KBool:
			return x.n == 0
		}
		return false
	}
	if a.kind == KString && b.kind == KString {
		return a.Str() == b.Str()
	}
	// Opcodes and bools compare their payloads, as numbers do.
	return a.AsInt() == b.AsInt()
}

// dictKey is a comparable key of a generic dict.
type dictKey struct {
	i     int64
	s     string
	isStr bool
}

func keyOf(v Value) dictKey {
	if v.kind == KString {
		return dictKey{s: v.Str(), isStr: true}
	}
	return dictKey{i: v.AsInt()}
}

// DictVal is a dictionary. Lookups of missing keys return the zero value
// of the element type (NULL-comparable), matching the paper's usage.
// Callers convert keys to the dict's declared key type, as they do
// elements; a typed dict then stores AsInt of both.
//
// A typed dict keeps small non-negative keys — loop and block IDs,
// vector indices — in a dense segment: the element of key k in
// [0, len(dense)) is dense[k] (0 while absent), and a presence bit
// records that k was stored. Every other key lives in ints. The segment
// grows only to cover a key below 2·Len()+64, so it stays within a few
// words per entry, and sparse keys such as addresses stay in the map.
type DictVal struct {
	dense   []int64         // typed form: keys [0, len(dense))
	present []uint64        // typed form: presence bits of dense
	nDense  int             // typed form: set bits of present
	ints    map[int64]int64 // typed form: every other key; nil for the generic form
	m       map[dictKey]Value
	zero    Value
}

// NewDict returns an empty generic dict whose missing-key value is
// elemZero.
func NewDict(elemZero Value) *DictVal {
	return &DictVal{m: make(map[dictKey]Value), zero: elemZero}
}

// NewIntDict returns an empty typed dict of numeric keys and elements.
func NewIntDict() *DictVal {
	return &DictVal{ints: make(map[int64]int64), zero: IntVal(0)}
}

// Typed reports whether the dict has the typed form, whose elements
// Load, Store and AddTo access by int64 key.
func (d *DictVal) Typed() bool { return d.ints != nil }

// Load returns the element of key k of a typed dict, 0 if missing. It
// never inserts.
func (d *DictVal) Load(k int64) int64 {
	if uint64(k) < uint64(len(d.dense)) {
		return d.dense[k]
	}
	return d.ints[k]
}

// Store sets the element of key k of a typed dict.
func (d *DictVal) Store(k, n int64) {
	if uint64(k) >= uint64(len(d.dense)) {
		if d.sparse(k) {
			d.ints[k] = n
			return
		}
		d.grow(k)
	}
	d.dense[k] = n
	d.mark(k)
}

// AddTo adds n to the element of key k of a typed dict, inserting k if
// missing.
func (d *DictVal) AddTo(k, n int64) {
	if uint64(k) >= uint64(len(d.dense)) {
		if d.sparse(k) {
			d.ints[k] += n
			return
		}
		d.grow(k)
	}
	d.dense[k] += n
	d.mark(k)
}

// sparse reports whether a key outside the dense segment stays in the
// map: a negative key, or one not below 2·Len()+64.
func (d *DictVal) sparse(k int64) bool { return uint64(k) >= uint64(2*d.Len()+64) }

// mark records that dense key k is present.
func (d *DictVal) mark(k int64) {
	if w, bit := &d.present[k>>6], uint64(1)<<(k&63); *w&bit == 0 {
		*w |= bit
		d.nDense++
	}
}

// grow extends the dense segment to cover key k, at least doubling it,
// and moves the map entries it then covers into it.
func (d *DictVal) grow(k int64) {
	old := int64(len(d.dense))
	size := (max(k+1, 2*old) + 63) &^ 63
	d.dense = append(d.dense, make([]int64, size-old)...)
	d.present = append(d.present, make([]uint64, (size-old)/64)...)
	for key, e := range d.ints {
		if key >= old && key < size {
			delete(d.ints, key)
			d.dense[key] = e
			d.mark(key)
		}
	}
}

// Get returns the value for the key (zero element if missing).
func (d *DictVal) Get(k Value) Value {
	if d.ints != nil {
		return IntVal(d.Load(k.AsInt()))
	}
	if v, ok := d.m[keyOf(k)]; ok {
		return v
	}
	return d.zero
}

// Set stores a value under the key.
func (d *DictVal) Set(k, v Value) {
	if d.ints != nil {
		d.Store(k.AsInt(), v.AsInt())
		return
	}
	d.m[keyOf(k)] = v
}

// Has reports whether the key is present.
func (d *DictVal) Has(k Value) bool {
	if d.ints != nil {
		i := k.AsInt()
		if uint64(i) < uint64(len(d.dense)) {
			return d.present[i>>6]&(1<<(i&63)) != 0
		}
		_, ok := d.ints[i]
		return ok
	}
	_, ok := d.m[keyOf(k)]
	return ok
}

// Len returns the entry count.
func (d *DictVal) Len() int {
	if d.ints != nil {
		return d.nDense + len(d.ints)
	}
	return len(d.m)
}

// SeqVal is the element storage of a vector (growable) or a static array
// (fixed length); the Value's kind says which.
type SeqVal struct {
	typed bool
	ints  []int64 // typed form
	elems []Value // generic form
}

// NewSeq returns a generic sequence holding elems.
func NewSeq(elems []Value) *SeqVal { return &SeqVal{elems: elems} }

// NewIntSeq returns a typed sequence of n zero numbers.
func NewIntSeq(n int) *SeqVal { return &SeqVal{typed: true, ints: make([]int64, n)} }

// Ints returns the storage of a typed sequence and true, or nil and false
// for a generic one. Elements may be written through the slice.
func (s *SeqVal) Ints() ([]int64, bool) { return s.ints, s.typed }

// Len returns the element count.
func (s *SeqVal) Len() int {
	if s.typed {
		return len(s.ints)
	}
	return len(s.elems)
}

// Get returns element i (NULL if out of range).
func (s *SeqVal) Get(i int64) Value {
	if i < 0 || i >= int64(s.Len()) {
		return Null
	}
	if s.typed {
		return IntVal(s.ints[i])
	}
	return s.elems[i]
}

// Set stores element i, which the caller has range-checked.
func (s *SeqVal) Set(i int64, e Value) {
	if s.typed {
		s.ints[i] = e.AsInt()
		return
	}
	s.elems[i] = e
}

// Add appends an element.
func (s *SeqVal) Add(e Value) {
	if s.typed {
		s.ints = append(s.ints, e.AsInt())
		return
	}
	s.elems = append(s.elems, e)
}

// Has reports whether an equal element is present. Equal of a number and
// any value compares AsInt, so the typed form compares e.AsInt().
func (s *SeqVal) Has(e Value) bool {
	if s.typed {
		return slices.Contains(s.ints, e.AsInt())
	}
	for _, x := range s.elems {
		if Equal(x, e) {
			return true
		}
	}
	return false
}

// FileVal is an open tool file. Writes append lines; reads consume lines
// sequentially. A single handle is shared across the analysis and
// execution stages, which is how Figure 9's analysis output becomes the
// init block's input.
type FileVal struct {
	Name    string
	Lines   []string
	ReadPos int
}

// WriteLine appends one line.
func (f *FileVal) WriteLine(s string) { f.Lines = append(f.Lines, s) }

// GetLine reads the next line, or NULL at end of file.
func (f *FileVal) GetLine() Value {
	if f.ReadPos >= len(f.Lines) {
		return Null
	}
	s := f.Lines[f.ReadPos]
	f.ReadPos++
	return StrVal(s)
}

// CFERef is a bound control-flow element: the value of a command's CFE
// variable. Static attributes are computed from the referenced CFG
// structures; dynamic attributes are materialized per probe invocation by
// the backend.
type CFERef struct {
	Kind   ast.EType
	Inst   *isa.Inst
	Block  *cfg.Block
	Func   *cfg.Func
	Loop   *cfg.Loop
	Module *cfg.Module
	Prog   *cfg.Program
}

func (r *CFERef) String() string {
	switch r.Kind {
	case ast.Inst:
		return fmt.Sprintf("inst@%#x", r.Inst.Addr)
	case ast.BasicBlock:
		return fmt.Sprintf("basicblock@%#x", r.Block.Start)
	case ast.Func:
		return fmt.Sprintf("func %s", r.Func.Name)
	case ast.Loop:
		return fmt.Sprintf("loop %d", r.Loop.ID)
	case ast.Module:
		return fmt.Sprintf("module %s", r.Module.Name())
	}
	return "cfe?"
}

// Copy returns a value-snapshot of v: containers are deep-copied so that
// action closures capture analysis data by value (the paper's "static
// data passed as arguments to callbacks"), while files stay shared.
// Copies keep the original's representation.
func Copy(v Value) Value {
	switch v.kind {
	case KDict:
		d := v.Dict()
		return DictValue(&DictVal{
			dense: slices.Clone(d.dense), present: slices.Clone(d.present), nDense: d.nDense,
			ints: maps.Clone(d.ints), m: maps.Clone(d.m), zero: d.zero,
		})
	case KVector, KArray:
		s := v.Seq()
		ns := &SeqVal{typed: s.typed, ints: slices.Clone(s.ints), elems: slices.Clone(s.elems)}
		return Value{kind: v.kind, p: unsafe.Pointer(ns)}
	}
	return v
}

// Nested reports whether v is a container with an element that is itself
// a container or a file handle — state one Copy would leave aliased.
// Typed containers hold only numbers.
func Nested(v Value) bool {
	switch v.kind {
	case KDict:
		for _, e := range v.Dict().m {
			if e.isRef() {
				return true
			}
		}
	case KVector, KArray:
		for _, e := range v.Seq().elems {
			if e.isRef() {
				return true
			}
		}
	}
	return false
}

func (v Value) isRef() bool {
	switch v.kind {
	case KDict, KVector, KArray, KFile:
		return true
	}
	return false
}
