// Package cli holds the input-parsing helper of the internal
// command-line harness cmd/ghdtool: the ';'/','-separated query
// hypergraph syntax. The parser returns errors — never panics — so
// commands can print a usage message and exit nonzero on malformed
// input. (cmd/faqrun is a client of the public faqs façade and carries
// its own copy of this tiny grammar; keep the two in sync when the
// syntax changes.)
package cli

import (
	"fmt"
	"strings"

	"repro/internal/hypergraph"
)

// ParseQuery parses a query hypergraph given as ';'-separated hyperedges,
// each a ','-separated list of vertex names:
//
//	A,B;A,C;A,D
//
// Whitespace around names is ignored; empty hyperedges and an empty spec
// are errors.
func ParseQuery(spec string) (*hypergraph.Hypergraph, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("empty query (want e.g. 'A,B;A,C')")
	}
	b := hypergraph.NewBuilder()
	for _, edge := range strings.Split(spec, ";") {
		var names []string
		for _, v := range strings.Split(edge, ",") {
			if v = strings.TrimSpace(v); v != "" {
				names = append(names, v)
			}
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("empty hyperedge in query %q", spec)
		}
		b.Edge(names...)
	}
	return b.Build(), nil
}
