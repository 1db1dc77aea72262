package jobs

import (
	"bytes"
	"math"
)

// The bytes json.Marshal writes around a RowRecord's values, in field order.
var (
	rowHead     = []byte(`{"type":"row","index":`)
	keyField    = []byte(`,"key":"`)
	statusField = []byte(`,"status":"`)
	resultField = []byte(`,"result":`)
	errorField  = []byte(`,"error":"`)
)

// plain marks the bytes json.Marshal writes unescaped inside a string and
// json.Unmarshal reads back as themselves: printable ASCII except '"', '\'
// and the HTML-escaped '<', '>' and '&'.
var plain = func() (t [256]bool) {
	for c := ' '; c <= '~'; c++ {
		t[c] = true
	}
	t['"'], t['\\'], t['<'], t['>'], t['&'] = false, false, false, false, false
	return t
}()

// scanRow decodes line, one journal line with its newline, when it holds
// exactly the bytes json.Marshal writes for a terminal RowRecord:
// {"type":"row","index":I,"key":"K","status":"S"}, with ,"result":R and then
// ,"error":"E" before the brace when present. I is written as json.Marshal
// writes an int, K and E are plain bytes (E not empty), S is a terminal
// status, and R is null, [] or an array of flat objects whose names are
// [a-z_]+ and whose values are JSON integers, which is valid JSON. The
// record is built without reflection, and its Result is a subslice of line
// capped at its end, so an append to it copies.
//
// Any other line returns false, and replayOne decodes it with
// json.Unmarshal, which gives the same record for every line scanRow
// accepts: the decode is both the fallback and the oracle (FuzzJournalRow).
func scanRow(line []byte) (record, bool) {
	b, ok := bytes.CutPrefix(line, rowHead)
	if !ok {
		return record{}, false
	}
	rec := record{Type: "row"}
	var w int
	if rec.Index, w = scanIndex(b); w == 0 {
		return record{}, false
	}
	key, b, ok := scanString(b[w:], keyField)
	if !ok {
		return record{}, false
	}
	status, b, ok := scanString(b, statusField)
	if !ok {
		return record{}, false
	}
	for _, st := range [...]RowStatus{RowOK, RowFailed, RowDeadline, RowQuarantined} {
		if string(status) == string(st) {
			rec.Status = st
		}
	}
	if rec.Status == "" {
		return record{}, false
	}
	if rest, ok := bytes.CutPrefix(b, resultField); ok {
		if w = resultLen(rest); w == 0 {
			return record{}, false
		}
		rec.Result, b = rest[:w:w], rest[w:]
	}
	if e, rest, ok := scanString(b, errorField); ok && len(e) > 0 {
		rec.Error, b = string(e), rest
	}
	if string(b) != "}\n" {
		return record{}, false
	}
	rec.Key = string(key)
	return rec, true
}

// scanString reads field, the bytes that open a string member, then plain
// bytes up to the closing quote. It returns those bytes and what follows the
// quote, or false.
func scanString(b, field []byte) (s, rest []byte, ok bool) {
	if b, ok = bytes.CutPrefix(b, field); !ok {
		return nil, nil, false
	}
	for i, c := range b {
		if !plain[c] {
			return b[:i], b[i+1:], c == '"'
		}
	}
	return nil, nil, false
}

// scanIndex returns the int at the start of b, written the way json.Marshal
// writes an int, 0|-?[1-9][0-9]* in int's range, and its width; the width
// is 0 when b does not start with one.
func scanIndex(b []byte) (int, int) {
	w := intLen(b)
	digits, neg := b[:w], w > 0 && b[0] == '-'
	if neg {
		digits = digits[1:]
	}
	// Any 19 digits fit a uint64, and an int has at most 19.
	if w == 0 || len(digits) > 19 || neg && digits[0] == '0' {
		return 0, 0
	}
	var u uint64
	for _, c := range digits {
		u = u*10 + uint64(c-'0')
	}
	if neg {
		if u > uint64(math.MaxInt)+1 {
			return 0, 0
		}
		return int(-u), w
	}
	if u > math.MaxInt {
		return 0, 0
	}
	return int(u), w
}

// intLen returns the width of the JSON integer at the start of b,
// -?(0|[1-9][0-9]*), or 0 when b does not start with one.
func intLen(b []byte) int {
	i := 0
	if len(b) > 0 && b[0] == '-' {
		i = 1
	}
	if i == len(b) || b[i] < '0' || b[i] > '9' {
		return 0
	}
	if b[i] == '0' {
		return i + 1
	}
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// resultLen returns the width of the result at the start of b, null, [] or
// an array of flat objects, or 0 when b does not start with one.
func resultLen(b []byte) int {
	switch {
	case bytes.HasPrefix(b, []byte("null")):
		return 4
	case bytes.HasPrefix(b, []byte("[]")):
		return 2
	}
	for i, next := 0, byte('['); i < len(b) && b[i] == next; next = ',' {
		w := objectLen(b[i+1:])
		if w == 0 {
			return 0
		}
		i += 1 + w
		if i < len(b) && b[i] == ']' {
			return i + 1
		}
	}
	return 0
}

// objectLen returns the width of the object at the start of b,
// {"name":int,...} with one or more members, [a-z_]+ names and JSON integer
// values, or 0 when b does not start with one.
func objectLen(b []byte) int {
	for i, next := 0, byte('{'); i < len(b) && b[i] == next; next = ',' {
		if i+1 == len(b) || b[i+1] != '"' {
			return 0
		}
		n := i + 2
		for n < len(b) && ('a' <= b[n] && b[n] <= 'z' || b[n] == '_') {
			n++
		}
		if n == i+2 || n+1 >= len(b) || b[n] != '"' || b[n+1] != ':' {
			return 0
		}
		w := intLen(b[n+2:])
		if w == 0 {
			return 0
		}
		i = n + 2 + w
		if i < len(b) && b[i] == '}' {
			return i + 1
		}
	}
	return 0
}
