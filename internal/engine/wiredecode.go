package engine

import (
	"bytes"
	"errors"
	"fmt"
	"unicode/utf8"

	"repro/internal/wire"
)

// ParseEventLine decodes one NDJSON line into a runtime event. It is a
// single-pass scanner over the fixed WireEvent schema that accepts what
// encoding/json accepts when it decodes a WireEvent, with two exceptions:
// it rejects any trailing data after the object, a stray '}' or ']'
// included, and an edge that is not a [u, v] pair of exactly two entries.
// The rules it shares with encoding/json:
//
//   - keys match the field names case-insensitively, after \uXXXX escapes
//     are decoded; unknown keys are skipped with any valid JSON value;
//   - a duplicate key overrides the earlier one, and an array decodes into
//     the earlier array's storage, so a null element keeps the value the
//     earlier array had at that index;
//   - null leaves a scalar field as it is and makes an array field absent;
//   - integer fields take integer literals only: a fraction, an exponent
//     or an out-of-range value is an error;
//   - containers nest at most 10000 deep, the event object included.
//
// The only allocations are the payloads of the rare events: an arrival's
// task list when its weights are not all equal, a join's peers and an
// edge change's lists. An arrival of any number of equal tasks decodes to
// its run, and it, a completion and a leave allocate nothing.
func ParseEventLine(line []byte) (Event, error) {
	var w wireScratch
	d := wireDecoder{b: line}
	if err := d.event(&w); err != nil {
		return Event{}, fmt.Errorf("decode event: %w", err)
	}
	switch w.req.Kind {
	case "join":
		w.req.Peers = w.peers.owned()
	case "edge-change":
		w.req.Add, w.req.Remove = w.add.owned(), w.remove.owned()
	}
	return fromWire(&w.req, w.weights.view())
}

// wireScratch is what ParseEventLine decodes into: the scalar fields in
// req, the array fields in lists that cost no allocation while short.
type wireScratch struct {
	req         WireEvent
	weights     jsonList[int64]
	peers       jsonList[int]
	add, remove jsonList[[2]int]
}

// maxJSONDepth is encoding/json's nesting limit.
const maxJSONDepth = 10000

// The WireEvent fields, in wireFieldNames order.
const (
	fieldUnknown = iota
	fieldKind
	fieldAt
	fieldNode
	fieldTokens
	fieldWeight
	fieldWeights
	fieldCount
	fieldSpeed
	fieldPeers
	fieldAdd
	fieldRemove
)

var wireFieldNames = [...][]byte{
	fieldKind: []byte("kind"), fieldAt: []byte("at"), fieldNode: []byte("node"),
	fieldTokens: []byte("tokens"), fieldWeight: []byte("weight"), fieldWeights: []byte("weights"),
	fieldCount: []byte("count"), fieldSpeed: []byte("speed"), fieldPeers: []byte("peers"),
	fieldAdd: []byte("add"), fieldRemove: []byte("remove"),
}

// wireField resolves a decoded key to its field: the exact name first,
// then bytes.EqualFold, which is the case folding encoding/json applies
// (it also folds the Kelvin sign to k and the long s to s).
func wireField(key []byte) int {
	for f := fieldKind; f < len(wireFieldNames); f++ {
		if bytes.Equal(key, wireFieldNames[f]) {
			return f
		}
	}
	for f := fieldKind; f < len(wireFieldNames); f++ {
		if bytes.EqualFold(key, wireFieldNames[f]) {
			return f
		}
	}
	return fieldUnknown
}

// wireKind returns the kind string of a decoded "kind" value, without
// allocating for the names in the kind table.
func wireKind(s []byte) string {
	for _, k := range wire.Kinds[1:] {
		if string(s) == k {
			return k
		}
	}
	return string(s)
}

// jsonList is one array field decoded with encoding/json's slice
// semantics. A duplicate key decodes into the same storage, so a null
// element keeps the value last decoded at its index (zero if there is
// none); null makes the field absent and [] makes it empty, and both
// forget the earlier values. The first listInline elements live in the
// struct, so a short list costs no allocation.
type jsonList[T any] struct {
	inline [listInline]T
	// spill holds every element once the list outgrows inline.
	spill []T
	// hi is the number of slots ever written; n is the length of the last
	// decoded array.
	hi, n int
	// set is false while the field is absent or null.
	set bool
}

const listInline = 8

func (l *jsonList[T]) forget(set bool) {
	clear(l.inline[:])
	l.spill, l.hi, l.n, l.set = nil, 0, 0, set
}

// elem extends the array being decoded to index k and returns its slot.
func (l *jsonList[T]) elem(k int) *T {
	if k == l.hi {
		l.hi++
		if k == listInline {
			l.spill = append(make([]T, 0, 2*listInline), l.inline[:]...)
		}
		if l.spill != nil {
			var zero T
			l.spill = append(l.spill, zero)
		}
	}
	l.n = k + 1
	if l.spill != nil {
		return &l.spill[k]
	}
	return &l.inline[k]
}

// view returns the decoded elements; it aliases l.
func (l *jsonList[T]) view() []T {
	if l.spill != nil {
		return l.spill[:l.n]
	}
	return l.inline[:l.n]
}

// owned returns the decoded slice in storage of its own: nil if the
// field was absent or null, empty but not nil if it was [].
func (l *jsonList[T]) owned() []T {
	if !l.set {
		return nil
	}
	return append(make([]T, 0, l.n), l.view()...)
}

// wireDecoder scans one JSON text; i is the read offset into b.
type wireDecoder struct {
	b []byte
	i int
}

var errEOF = errors.New("unexpected end of input")

// syntax reports the byte at the read offset as unexpected.
func (d *wireDecoder) syntax() error {
	if d.i >= len(d.b) {
		return errEOF
	}
	return fmt.Errorf("invalid character %q at offset %d", d.b[d.i], d.i)
}

// ws skips JSON whitespace.
func (d *wireDecoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, if c is next.
func (d *wireDecoder) consume(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// literal consumes lit if the input continues with it.
func (d *wireDecoder) literal(lit string) bool {
	if bytes.HasPrefix(d.b[d.i:], []byte(lit)) {
		d.i += len(lit)
		return true
	}
	return false
}

// null consumes a null value if one is next.
func (d *wireDecoder) null() bool {
	d.ws()
	return d.literal("null")
}

// event decodes the top-level object into w and requires that nothing
// but whitespace follows it.
func (d *wireDecoder) event(w *wireScratch) error {
	if !d.consume('{') {
		if d.ws(); d.i < len(d.b) {
			return errors.New("event must be a JSON object")
		}
		return errEOF
	}
	var keyBuf [32]byte
	for more := !d.consume('}'); more; {
		d.ws()
		raw, escaped, err := d.str()
		if err != nil {
			return err
		}
		key := raw
		if escaped {
			// A longer key cannot fold to a field name.
			if key = unquote(keyBuf[:0], raw); len(key) > len(keyBuf) {
				key = nil
			}
		}
		if !d.consume(':') {
			return d.syntax()
		}
		switch wireField(key) {
		case fieldKind:
			err = d.kind(&w.req.Kind)
		case fieldAt:
			err = intField(d, &w.req.At, "at")
		case fieldNode:
			err = intField(d, &w.req.Node, "node")
		case fieldTokens:
			err = intField(d, &w.req.Tokens, "tokens")
		case fieldWeight:
			err = intField(d, &w.req.Weight, "weight")
		case fieldCount:
			err = intField(d, &w.req.Count, "count")
		case fieldSpeed:
			err = intField(d, &w.req.Speed, "speed")
		case fieldWeights:
			err = intList(d, &w.weights, "weights")
		case fieldPeers:
			err = intList(d, &w.peers, "peers")
		case fieldAdd:
			err = d.edges(&w.add, "add")
		case fieldRemove:
			err = d.edges(&w.remove, "remove")
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
		if more, err = d.next('}'); err != nil {
			return err
		}
	}
	if d.ws(); d.i < len(d.b) {
		return fmt.Errorf("trailing data after event at offset %d", d.i)
	}
	return nil
}

// next consumes what follows a member of an object or array that closer
// ends, and reports whether another member follows.
func (d *wireDecoder) next(closer byte) (bool, error) {
	if d.consume(',') {
		return true, nil
	}
	if d.consume(closer) {
		return false, nil
	}
	return false, d.syntax()
}

// str consumes a string and returns its raw contents between the quotes,
// and whether they hold an escape sequence.
func (d *wireDecoder) str() (raw []byte, escaped bool, err error) {
	if d.i >= len(d.b) || d.b[d.i] != '"' {
		return nil, false, d.syntax()
	}
	d.i++
	start := d.i
	for d.i < len(d.b) {
		switch c := d.b[d.i]; {
		case c == '"':
			raw = d.b[start:d.i]
			d.i++
			return raw, escaped, nil
		case c == '\\':
			escaped = true
			d.i++
			if d.i >= len(d.b) {
				return nil, false, errEOF
			}
			switch d.b[d.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.i++
			case 'u':
				d.i++
				for k := 0; k < 4; k++ {
					if d.i >= len(d.b) {
						return nil, false, errEOF
					}
					if hexVal(d.b[d.i]) < 0 {
						return nil, false, d.syntax()
					}
					d.i++
				}
			default:
				return nil, false, d.syntax()
			}
		case c < 0x20:
			return nil, false, d.syntax()
		default:
			d.i++
		}
	}
	return nil, false, errEOF
}

func hexVal(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}

// unquote appends the decoded form of a string's raw contents, which str
// has validated, to dst. It decodes only as far as matching keys and kinds
// needs: a surrogate escape becomes U+FFFD, and invalid UTF-8 is copied as
// it is; like the U+FFFD encoding/json puts in its place, it matches no
// field name and no kind.
func unquote(dst, raw []byte) []byte {
	for k := 0; k < len(raw); k++ {
		c := raw[k]
		if c != '\\' {
			dst = append(dst, c)
			continue
		}
		k++
		switch raw[k] {
		case 'b':
			dst = append(dst, '\b')
		case 'f':
			dst = append(dst, '\f')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 't':
			dst = append(dst, '\t')
		case 'u':
			r := hexVal(raw[k+1])<<12 | hexVal(raw[k+2])<<8 | hexVal(raw[k+3])<<4 | hexVal(raw[k+4])
			dst = utf8.AppendRune(dst, rune(r))
			k += 4
		default: // '"', '\\', '/'
			dst = append(dst, raw[k])
		}
	}
	return dst
}

// kind decodes the "kind" value: a string, or null to leave it as it is.
func (d *wireDecoder) kind(dst *string) error {
	if d.null() {
		return nil
	}
	raw, escaped, err := d.str()
	if err != nil {
		return fmt.Errorf("field kind: %w", err)
	}
	if escaped {
		raw = unquote(nil, raw)
	}
	*dst = wireKind(raw)
	return nil
}

// intPart consumes the sign and integer part of a number and returns the
// offset of its first digit.
func (d *wireDecoder) intPart() (int, error) {
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
	}
	digits := d.i
	if d.i < len(d.b) && d.b[d.i] == '0' {
		d.i++
	} else {
		for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
			d.i++
		}
	}
	if d.i == digits {
		return 0, d.syntax()
	}
	return digits, nil
}

// integer consumes a JSON number that must be an integer in int64 range.
func (d *wireDecoder) integer() (int64, error) {
	start := d.i
	digits, err := d.intPart()
	if err != nil {
		return 0, err
	}
	end := d.i
	if d.i < len(d.b) && (d.b[d.i] == '.' || d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		if err := d.fraction(); err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("number %s is not an integer", d.b[start:d.i])
	}
	// 19 digits always fit in a uint64; 20 never fit in an int64.
	if end-digits > 19 {
		return 0, fmt.Errorf("number %s overflows int64", d.b[start:end])
	}
	var u uint64
	for _, c := range d.b[digits:end] {
		u = u*10 + uint64(c-'0')
	}
	if digits > start { // negative
		if u > 1<<63 {
			return 0, fmt.Errorf("number %s overflows int64", d.b[start:end])
		}
		return -int64(u), nil
	}
	if u > 1<<63-1 {
		return 0, fmt.Errorf("number %s overflows int64", d.b[start:end])
	}
	return int64(u), nil
}

// fraction consumes the fraction and exponent parts of a number.
func (d *wireDecoder) fraction() error {
	digits := func() error {
		start := d.i
		for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
			d.i++
		}
		if d.i == start {
			return d.syntax()
		}
		return nil
	}
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		if err := digits(); err != nil {
			return err
		}
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		return digits()
	}
	return nil
}

// intValue consumes an integer that must fit T.
func intValue[T int | int64](d *wireDecoder, field string) (T, error) {
	v, err := d.integer()
	if err != nil {
		return 0, fmt.Errorf("field %s: %w", field, err)
	}
	if int64(T(v)) != v {
		return 0, fmt.Errorf("field %s: number %d overflows int", field, v)
	}
	return T(v), nil
}

// intField decodes an integer field; null leaves it as it is.
func intField[T int | int64](d *wireDecoder, dst *T, field string) error {
	if d.null() {
		return nil
	}
	v, err := intValue[T](d, field)
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

// arrayStart consumes null, an empty array or the opening bracket of a
// non-empty one into l, and reports whether elements follow.
func arrayStart[T any](d *wireDecoder, l *jsonList[T], field string) (bool, error) {
	if d.null() {
		l.forget(false)
		return false, nil
	}
	if !d.consume('[') {
		return false, fmt.Errorf("field %s: want an array", field)
	}
	if d.consume(']') {
		l.forget(true)
		return false, nil
	}
	l.set = true
	return true, nil
}

// intList decodes an array of integers; a null element keeps its slot.
func intList[T int | int64](d *wireDecoder, l *jsonList[T], field string) error {
	more, err := arrayStart(d, l, field)
	for k := 0; more; k++ {
		p := l.elem(k)
		if !d.null() {
			if *p, err = intValue[T](d, field); err != nil {
				return err
			}
		}
		if more, err = d.next(']'); err != nil {
			return err
		}
	}
	return err
}

// edges decodes an edge list: an array of [u, v] pairs. A null pair or
// entry keeps its slot; a pair of any other length is an error.
func (d *wireDecoder) edges(l *jsonList[[2]int], field string) error {
	more, err := arrayStart(d, l, field)
	for k := 0; more; k++ {
		p := l.elem(k)
		if !d.null() {
			if !d.consume('[') {
				return fmt.Errorf("field %s: want an array of [u, v] pairs", field)
			}
			n := 0
			for entry := !d.consume(']'); entry; n++ {
				if !d.null() {
					v, err := intValue[int](d, field)
					if err != nil {
						return err
					}
					if n < 2 {
						p[n] = v
					}
				}
				if entry, err = d.next(']'); err != nil {
					return err
				}
			}
			if n != 2 {
				return fmt.Errorf("field %s: edge has %d entries, want 2", field, n)
			}
		}
		if more, err = d.next(']'); err != nil {
			return err
		}
	}
	return err
}

// skip consumes the value of an unknown field, checking its syntax and
// the nesting limit without decoding it.
func (d *wireDecoder) skip() error {
	// inObject has bit k set when the k-th open container is an object.
	var inObject [maxJSONDepth/64 + 1]uint64
	depth := 0
	for {
		// A value is next.
		d.ws()
		if d.i >= len(d.b) {
			return errEOF
		}
		switch c := d.b[d.i]; c {
		case '{', '[':
			// The event object is the first level.
			if depth+2 > maxJSONDepth {
				return errors.New("exceeded max depth")
			}
			d.i++
			if c == '{' {
				inObject[depth>>6] |= 1 << (depth & 63)
			} else {
				inObject[depth>>6] &^= 1 << (depth & 63)
			}
			depth++
			if !d.consume(c + 2) { // '}' and ']' follow '{' and '[' by two
				if c == '{' {
					if err := d.key(); err != nil {
						return err
					}
				}
				continue
			}
			depth--
		case '"':
			if _, _, err := d.str(); err != nil {
				return err
			}
		case 't', 'f', 'n':
			if !d.literal("true") && !d.literal("false") && !d.literal("null") {
				return d.syntax()
			}
		default:
			if _, err := d.intPart(); err != nil {
				return err
			}
			if err := d.fraction(); err != nil {
				return err
			}
		}
		// The value is complete; close the containers it completes.
		for ; depth > 0; depth-- {
			obj := inObject[(depth-1)>>6]&(1<<((depth-1)&63)) != 0
			closer := byte(']')
			if obj {
				closer = '}'
			}
			more, err := d.next(closer)
			if err != nil {
				return err
			}
			if more {
				if obj {
					if err := d.key(); err != nil {
						return err
					}
				}
				break
			}
		}
		if depth == 0 {
			return nil
		}
	}
}

// key consumes an object key and its colon inside a skipped value.
func (d *wireDecoder) key() error {
	d.ws()
	if _, _, err := d.str(); err != nil {
		return err
	}
	if !d.consume(':') {
		return d.syntax()
	}
	return nil
}
