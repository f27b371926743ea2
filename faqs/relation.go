package faqs

import "fmt"

// Schema names the attributes (query variables) of a relation, in column
// order. Attribute names are shared across a query: two factors mentioning
// attribute "A" join on it, exactly as hyperedges of the query hypergraph
// share vertices.
type Schema struct {
	attrs []string
}

// NewSchema returns a schema over the given attribute names. Names must
// be non-empty and distinct within one schema.
func NewSchema(attrs ...string) (*Schema, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("faqs: schema needs at least one attribute")
	}
	seen := make(map[string]bool, len(attrs))
	for i, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("faqs: attribute %d is empty", i)
		}
		if seen[a] {
			return nil, fmt.Errorf("faqs: duplicate attribute %q", a)
		}
		seen[a] = true
	}
	return &Schema{attrs: append([]string(nil), attrs...)}, nil
}

// MustSchema is NewSchema panicking on error — for statically-known
// schemas in examples and tests.
func MustSchema(attrs ...string) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Attrs returns a copy of the attribute names in column order.
func (s *Schema) Attrs() []string { return append([]string(nil), s.attrs...) }

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.attrs) }

// String renders the schema for diagnostics.
func (s *Schema) String() string { return fmt.Sprintf("%v", s.attrs) }

// Relation is an immutable semiring-annotated relation in listing
// representation, ready to be used as a query factor. Values are carried
// as float64 across the façade; a relation built purely with Add (no
// explicit values) annotates every tuple with the chosen semiring's
// multiplicative identity — the natural encoding of ordinary database
// tuples.
type Relation struct {
	schema *Schema
	rows   []int     // row-major: Arity() ints per tuple, one buffer
	values []float64 // nil: every tuple is the semiring One
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of listed tuples.
func (r *Relation) Len() int { return len(r.rows) / len(r.schema.attrs) }

// String renders the relation for diagnostics.
func (r *Relation) String() string {
	return fmt.Sprintf("Relation(%v, n=%d)", r.schema.attrs, r.Len())
}

// RelationBuilder ingests tuples one at a time into one flat row-major
// buffer (streaming: nothing is held beyond the tuples themselves, and
// errors accumulate instead of panicking). A builder is either
// Boolean-style — every tuple added with Add, annotated with the
// semiring's 1 at query build time — or value-annotated via AddValued;
// mixing the two is an error, mirroring the all-or-nothing value
// encoding of the wire schema.
type RelationBuilder struct {
	schema *Schema
	rows   []int
	values []float64
	n      int
	err    error
}

// NewRelationBuilder returns a builder over the given schema.
func NewRelationBuilder(s *Schema) *RelationBuilder {
	b := &RelationBuilder{schema: s}
	if s == nil || len(s.attrs) == 0 {
		b.err = fmt.Errorf("faqs: relation builder needs a non-empty schema")
	}
	return b
}

// add appends one tuple to the flat buffer. The tuple length must match
// the schema arity and every tuple must be added the same way (valued
// or not); violations are recorded and surface from Relation().
func (b *RelationBuilder) add(tuple []int, valued bool) bool {
	switch {
	case b.err != nil:
	case len(tuple) != len(b.schema.attrs):
		b.err = fmt.Errorf("faqs: tuple %v has arity %d, schema %v wants %d",
			tuple, len(tuple), b.schema.attrs, len(b.schema.attrs))
	case b.n > 0 && valued != (b.values != nil):
		b.err = fmt.Errorf("faqs: cannot mix Add and AddValued on one relation")
	default:
		b.rows = append(b.rows, tuple...)
		b.n++
		return true
	}
	return false
}

// Add appends one tuple annotated with the semiring's multiplicative
// identity.
func (b *RelationBuilder) Add(tuple ...int) *RelationBuilder {
	b.add(tuple, false)
	return b
}

// AddValued appends one tuple with an explicit semiring value (as
// float64 — exact for Bool/F2/Count within 2^53, native for the float
// semirings).
func (b *RelationBuilder) AddValued(value float64, tuple ...int) *RelationBuilder {
	if b.add(tuple, true) {
		b.values = append(b.values, value)
	}
	return b
}

// Len returns the number of tuples ingested so far.
func (b *RelationBuilder) Len() int { return b.n }

// Err returns the first ingestion error, if any.
func (b *RelationBuilder) Err() error { return b.err }

// Relation finalizes the builder. The builder must not be reused after.
func (b *RelationBuilder) Relation() (*Relation, error) {
	if b.err != nil {
		return nil, b.err
	}
	return &Relation{schema: b.schema, rows: b.rows, values: b.values}, nil
}
