package faqs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// The wire decoder. A /solve body is a few hundred bytes of structure
// around tens of kilobytes of integer tuples, and reflective decoding
// into [][]int pays an allocation per row. WireRequest and WireFactor
// therefore implement json.Unmarshaler over one hand-rolled scanner that
// writes every tuple of a request into a single row-major buffer, with
// WireFactor.Tuples as row views over it. The scanner reads the numeric
// arrays itself and hands everything else — strings, name lists, the
// aggregate map — to encoding/json one small value at a time, so quoting
// and type rules are encoding/json's own. The result is the value
// encoding/json would decode into the same struct without these methods
// (FuzzWireRequestDecode holds the two together), except that the
// receiver is overwritten rather than merged into.

// errReflect sends a body back through encoding/json: a repeated
// "factors", "tuples" or "values" key merges into the earlier value
// there, element by element, and that is not worth re-implementing.
var errReflect = errors.New("faqs: repeated key")

// UnmarshalJSON decodes one request; see the wire decoder note above.
func (wr *WireRequest) UnmarshalJSON(data []byte) error {
	var out WireRequest
	s := newWireScanner(data)
	err := s.document(func() error { return s.request(&out) })
	if err == errReflect {
		// The same fields without the methods; the nearer Factors wins.
		type fields WireRequest
		out = WireRequest{}
		p := struct {
			*fields
			Factors []plainFactor `json:"factors"`
		}{fields: (*fields)(&out)}
		if err = json.Unmarshal(data, &p); p.Factors != nil {
			out.Factors = make([]WireFactor, len(p.Factors))
			for i, f := range p.Factors {
				out.Factors[i] = WireFactor{Tuples: f.Tuples, Values: f.Values}
			}
		}
	}
	if err == nil {
		*wr = out
	}
	return err
}

// UnmarshalJSON decodes one factor; see the wire decoder note above.
func (wf *WireFactor) UnmarshalJSON(data []byte) error {
	var out WireFactor
	s := newWireScanner(data)
	err := s.document(func() error { return s.factor(&out) })
	if err == errReflect {
		var p plainFactor
		err = json.Unmarshal(data, &p)
		out = WireFactor{Tuples: p.Tuples, Values: p.Values}
	}
	if err == nil {
		*wf = out
	}
	return err
}

// plainFactor is WireFactor as encoding/json sees it without the
// Unmarshaler.
type plainFactor struct {
	Tuples [][]int   `json:"tuples"`
	Values []float64 `json:"values,omitempty"`
}

// wireScanner walks one JSON document. ints and rows are sized up front
// from the document's commas and brackets — an upper bound on its array
// elements and arrays, and at most one word or one slice header per
// input byte — so appends never move them and row views can be taken as
// rows are read.
type wireScanner struct {
	data []byte
	i    int
	ints []int   // every tuple of the document, row-major
	rows [][]int // views into ints, every factor's in turn
}

func newWireScanner(data []byte) *wireScanner {
	arrays := min(bytes.Count(data, []byte{'['}), bytes.Count(data, []byte{']'}))
	return &wireScanner{
		data: data,
		ints: make([]int, 0, arrays+bytes.Count(data, []byte{','})),
		rows: make([][]int, 0, arrays),
	}
}

func (s *wireScanner) errorf(format string, args ...any) error {
	return fmt.Errorf("faqs: wire JSON offset %d: %s", s.i, fmt.Sprintf(format, args...))
}

func (s *wireScanner) space() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// literal consumes lit if the input continues with it.
func (s *wireScanner) literal(lit string) bool {
	if s.i >= len(s.data) || s.data[s.i] != lit[0] || !bytes.HasPrefix(s.data[s.i:], []byte(lit)) {
		return false
	}
	s.i += len(lit)
	return true
}

// document reads one top-level value (null leaves the target alone, as
// it does a struct in encoding/json) and rejects trailing input.
func (s *wireScanner) document(value func() error) error {
	s.space()
	if !s.literal("null") {
		if err := value(); err != nil {
			return err
		}
	}
	if s.space(); s.i < len(s.data) {
		return s.errorf("invalid character %q after top-level value", s.data[s.i])
	}
	return nil
}

// list reads open item (',' item)* close with optional whitespace,
// calling item at the start of each; it is the comma-and-bracket
// grammar shared by arrays and objects.
func (s *wireScanner) list(open, close byte, item func() error) error {
	if s.i >= len(s.data) || s.data[s.i] != open {
		return s.errorf("expected %q", open)
	}
	s.i++
	if s.space(); s.i < len(s.data) && s.data[s.i] == close {
		s.i++
		return nil
	}
	for {
		if err := item(); err != nil {
			return err
		}
		if s.space(); s.i >= len(s.data) {
			return s.errorf("unexpected end of input")
		}
		switch s.data[s.i] {
		case ',':
			s.i++
			s.space()
		case close:
			s.i++
			return nil
		default:
			return s.errorf("expected ',' or %q", close)
		}
	}
}

// object reads a JSON object, calling field with each decoded key and
// the scanner at that key's value.
func (s *wireScanner) object(field func(key []byte) error) error {
	return s.list('{', '}', func() error {
		raw, err := s.skip()
		if err != nil {
			return err
		}
		if raw[0] != '"' {
			return s.errorf("expected a string key")
		}
		key := raw[1 : len(raw)-1]
		for _, c := range key {
			if c == '\\' || c < ' ' || c >= 0x80 { // escapes, controls, UTF-8: encoding/json's to judge
				var unquoted string
				if err := json.Unmarshal(raw, &unquoted); err != nil {
					return err
				}
				key = []byte(unquoted)
				break
			}
		}
		if s.space(); s.i >= len(s.data) || s.data[s.i] != ':' {
			return s.errorf("expected ':' after object key")
		}
		s.i++
		s.space()
		return field(key)
	})
}

// skip returns the extent of the value at the cursor without vouching
// for its insides: strings end at their closing quote, containers at
// their matching bracket, scalars at the next delimiter. Callers pass
// the extent to encoding/json, which does the vouching.
func (s *wireScanner) skip() ([]byte, error) {
	start, depth := s.i, 0
scan:
	for ; s.i < len(s.data); s.i++ {
		switch s.data[s.i] {
		case '"':
			for s.i++; s.i < len(s.data) && s.data[s.i] != '"'; s.i++ {
				if s.data[s.i] == '\\' {
					s.i++
				}
			}
			if s.i >= len(s.data) {
				return nil, s.errorf("unterminated string")
			}
		case '{', '[':
			depth++
			continue
		case '}', ']':
			if depth--; depth < 0 {
				break scan // the enclosing container's, after a scalar
			}
		case ',', ':', ' ', '\t', '\r', '\n':
			if depth == 0 {
				break scan
			}
			continue
		default:
			continue
		}
		if depth == 0 { // a top-level string or container just closed
			s.i++
			break
		}
	}
	if depth > 0 || s.i == start {
		return nil, s.errorf("expected a value")
	}
	return s.data[start:s.i], nil
}

// reflect decodes the value at the cursor into dst with encoding/json.
func (s *wireScanner) reflect(dst any) error {
	raw, err := s.skip()
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, dst)
}

// ignore passes over the value of an unknown key, which must still be
// well-formed.
func (s *wireScanner) ignore() error {
	raw, err := s.skip()
	if err == nil && !json.Valid(raw) {
		err = s.errorf("invalid value")
	}
	return err
}

func (s *wireScanner) request(wr *WireRequest) error {
	seenFactors := false
	return s.object(func(key []byte) error {
		switch {
		case bytes.EqualFold(key, []byte("semiring")):
			return s.reflect(&wr.Semiring)
		case bytes.EqualFold(key, []byte("edges")):
			return s.reflect(&wr.Edges)
		case bytes.EqualFold(key, []byte("free")):
			return s.reflect(&wr.Free)
		case bytes.EqualFold(key, []byte("aggregates")):
			return s.reflect(&wr.Aggregates)
		case bytes.EqualFold(key, []byte("dom")):
			return s.reflect(&wr.Dom)
		case bytes.EqualFold(key, []byte("factors")):
			if seenFactors {
				return errReflect
			}
			seenFactors = true
			if s.literal("null") {
				return nil
			}
			wr.Factors = []WireFactor{}
			return s.list('[', ']', func() error {
				wr.Factors = append(wr.Factors, WireFactor{})
				return s.factor(&wr.Factors[len(wr.Factors)-1])
			})
		}
		return s.ignore()
	})
}

func (s *wireScanner) factor(wf *WireFactor) error {
	if s.literal("null") {
		return nil
	}
	seenTuples, seenValues := false, false
	return s.object(func(key []byte) error {
		switch {
		case bytes.EqualFold(key, []byte("tuples")):
			if seenTuples {
				return errReflect
			}
			seenTuples = true
			return s.tuples(wf)
		case bytes.EqualFold(key, []byte("values")):
			if seenValues {
				return errReflect
			}
			seenValues = true
			return s.values(wf)
		}
		return s.ignore()
	})
}

// tuples reads a [][]int into the shared buffers.
func (s *wireScanner) tuples(wf *WireFactor) error {
	if s.literal("null") {
		return nil
	}
	row0, int0 := len(s.rows), len(s.ints)
	err := s.list('[', ']', func() error {
		if s.literal("null") {
			s.rows = append(s.rows, nil)
			return nil
		}
		lo := len(s.ints)
		err := s.list('[', ']', s.int)
		s.rows = append(s.rows, s.ints[lo:len(s.ints):len(s.ints)])
		return err
	})
	wf.Tuples = s.rows[row0:len(s.rows):len(s.rows)]
	wf.flat = s.ints[int0:]
	return err
}

// int reads one array element as encoding/json reads it into an int: a
// JSON number with no fraction or exponent that fits, or null for 0.
func (s *wireScanner) int() error {
	if s.literal("null") {
		s.ints = append(s.ints, 0)
		return nil
	}
	i := s.i
	neg := i < len(s.data) && s.data[i] == '-'
	if neg {
		i++
	}
	digits := i
	var n uint64
	for ; i < len(s.data) && '0' <= s.data[i] && s.data[i] <= '9'; i++ {
		n = n*10 + uint64(s.data[i]-'0')
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	// 19 digits cannot wrap a uint64; a leading zero is not JSON.
	if i == digits || i-digits > 19 || n > limit || (s.data[digits] == '0' && i-digits > 1) {
		return s.errorf("expected an integer that fits an int")
	}
	s.i = i
	if neg {
		n = -n
	}
	s.ints = append(s.ints, int(n))
	return nil
}

// values reads a []float64.
func (s *wireScanner) values(wf *WireFactor) error {
	if s.literal("null") {
		return nil
	}
	wf.Values = make([]float64, 0, len(wf.Tuples))
	return s.list('[', ']', func() error {
		v, err := s.float()
		wf.Values = append(wf.Values, v)
		return err
	})
}

// float reads one array element as encoding/json reads it into a
// float64: a token of the JSON number grammar that ParseFloat accepts
// in range, or null for 0. Short plain integers — every annotation of a
// counting query — are exact in a float64 and skip ParseFloat.
func (s *wireScanner) float() (float64, error) {
	if s.literal("null") {
		return 0, nil
	}
	start := s.i
	var n uint64
	digits := func() int {
		from := s.i
		for ; s.i < len(s.data) && '0' <= s.data[s.i] && s.data[s.i] <= '9'; s.i++ {
			n = n*10 + uint64(s.data[s.i]-'0')
		}
		return s.i - from
	}
	neg := s.literal("-")
	whole := digits()
	if whole == 0 || (whole > 1 && s.data[s.i-whole] == '0') {
		return 0, s.errorf("expected a number")
	}
	integer := n
	plain := whole <= 15 && !(neg && n == 0) // "-0" keeps its sign through ParseFloat
	if s.literal(".") {
		if plain = false; digits() == 0 {
			return 0, s.errorf("expected digits after the decimal point")
		}
	}
	if s.literal("e") || s.literal("E") {
		if !s.literal("+") {
			s.literal("-")
		}
		if plain = false; digits() == 0 {
			return 0, s.errorf("expected digits in the exponent")
		}
	}
	if plain {
		if neg {
			return -float64(integer), nil
		}
		return float64(integer), nil
	}
	v, err := strconv.ParseFloat(string(s.data[start:s.i]), 64)
	if err != nil {
		return 0, s.errorf("%v", err)
	}
	return v, nil
}
