// Package obstest holds test helpers for internal/obs: a strict parser
// of the Prometheus text exposition obs.Registry.WriteTo emits, so tests
// can round-trip /metrics and read values back.
package obstest

import (
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Series and label name grammars of the exposition format.
var (
	metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// ParsedSample is one series line from an exposition document.
type ParsedSample struct {
	Name   string            // full series name, e.g. "foo_bucket"
	Labels map[string]string // includes "le" for histogram buckets
	Value  float64
}

// ParsedFamily is one metric family: its HELP/TYPE metadata and every
// sample line that followed them.
type ParsedFamily struct {
	Name    string
	Help    string
	Type    string // "counter", "gauge", or "histogram"
	Samples []ParsedSample
}

// Scrape is a parsed exposition document.
type Scrape struct {
	Families map[string]*ParsedFamily
}

// ParseText parses a Prometheus text exposition document strictly. It
// accepts exactly the dialect obs.Registry.WriteTo produces — and
// rejects everything a malformed writer could emit: samples without a
// preceding TYPE, duplicate HELP/TYPE/series, unknown comment lines,
// label syntax errors, non-contiguous families, and histograms whose
// cumulative buckets decrease, lack le="+Inf", or disagree with _count.
func ParseText(r io.Reader) (*Scrape, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	s := &Scrape{Families: make(map[string]*ParsedFamily)}
	var cur *ParsedFamily
	done := make(map[string]bool) // families closed by a later HELP line
	lines := strings.Split(string(raw), "\n")
	for i, line := range lines {
		lineno := i + 1
		if line == "" {
			if i == len(lines)-1 {
				break // trailing newline
			}
			return nil, fmt.Errorf("obstest: parse line %d: blank line", lineno)
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := line[len("# HELP "):]
			sp := strings.IndexByte(rest, ' ')
			if sp <= 0 {
				return nil, fmt.Errorf("obstest: parse line %d: malformed HELP", lineno)
			}
			name, help := rest[:sp], unescapeHelp(rest[sp+1:])
			if s.Families[name] != nil || done[name] {
				return nil, fmt.Errorf("obstest: parse line %d: duplicate HELP for %s", lineno, name)
			}
			if cur != nil {
				done[cur.Name] = true
			}
			cur = &ParsedFamily{Name: name, Help: help}
			s.Families[name] = cur
		case strings.HasPrefix(line, "# TYPE "):
			rest := line[len("# TYPE "):]
			sp := strings.IndexByte(rest, ' ')
			if sp <= 0 {
				return nil, fmt.Errorf("obstest: parse line %d: malformed TYPE", lineno)
			}
			name, typ := rest[:sp], rest[sp+1:]
			if cur == nil || cur.Name != name {
				return nil, fmt.Errorf("obstest: parse line %d: TYPE %s without preceding HELP", lineno, name)
			}
			if cur.Type != "" {
				return nil, fmt.Errorf("obstest: parse line %d: duplicate TYPE for %s", lineno, name)
			}
			switch typ {
			case "counter", "gauge", "histogram":
				cur.Type = typ
			default:
				return nil, fmt.Errorf("obstest: parse line %d: unknown type %q for %s", lineno, typ, name)
			}
		case strings.HasPrefix(line, "#"):
			return nil, fmt.Errorf("obstest: parse line %d: unknown comment line", lineno)
		default:
			sample, err := parseSample(line)
			if err != nil {
				return nil, fmt.Errorf("obstest: parse line %d: %v", lineno, err)
			}
			if cur == nil || cur.Type == "" {
				return nil, fmt.Errorf("obstest: parse line %d: sample %s before TYPE", lineno, sample.Name)
			}
			if !sampleBelongs(cur, sample.Name) {
				return nil, fmt.Errorf("obstest: parse line %d: sample %s outside family %s", lineno, sample.Name, cur.Name)
			}
			for _, prev := range cur.Samples {
				if prev.Name == sample.Name && labelsEqual(prev.Labels, sample.Labels) {
					return nil, fmt.Errorf("obstest: parse line %d: duplicate series %s", lineno, sample.Name)
				}
			}
			cur.Samples = append(cur.Samples, sample)
		}
	}
	for _, f := range s.Families {
		if f.Type == "" {
			return nil, fmt.Errorf("obstest: parse: family %s has HELP but no TYPE", f.Name)
		}
		if f.Type == "histogram" {
			if err := checkHistogram(f); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// sampleBelongs reports whether a series name is legal inside family f.
func sampleBelongs(f *ParsedFamily, series string) bool {
	if f.Type == "histogram" {
		return series == f.Name+"_bucket" || series == f.Name+"_sum" || series == f.Name+"_count"
	}
	return series == f.Name
}

// parseSample parses `name{k="v",...} value` (labels optional).
func parseSample(line string) (ParsedSample, error) {
	sample := ParsedSample{Labels: map[string]string{}}
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	sample.Name = line[:i]
	if !metricName.MatchString(sample.Name) {
		return sample, fmt.Errorf("invalid series name %q", sample.Name)
	}
	if i < len(line) && line[i] == '{' {
		i++
		for {
			if i >= len(line) {
				return sample, fmt.Errorf("unterminated label set")
			}
			if line[i] == '}' {
				i++
				break
			}
			j := i
			for j < len(line) && line[j] != '=' {
				j++
			}
			name := line[i:j]
			if !labelName.MatchString(name) {
				return sample, fmt.Errorf("invalid label name %q", name)
			}
			if j+1 >= len(line) || line[j+1] != '"' {
				return sample, fmt.Errorf("label %s: expected quoted value", name)
			}
			val, rest, err := unquoteLabelValue(line[j+2:])
			if err != nil {
				return sample, fmt.Errorf("label %s: %v", name, err)
			}
			if _, dup := sample.Labels[name]; dup {
				return sample, fmt.Errorf("duplicate label %s", name)
			}
			sample.Labels[name] = val
			i = len(line) - len(rest)
			if i < len(line) && line[i] == ',' {
				i++
			} else if i >= len(line) || line[i] != '}' {
				return sample, fmt.Errorf("label %s: expected , or }", name)
			}
		}
	}
	if i >= len(line) || line[i] != ' ' {
		return sample, fmt.Errorf("expected space before value")
	}
	v, err := strconv.ParseFloat(line[i+1:], 64)
	if err != nil {
		return sample, fmt.Errorf("bad value %q", line[i+1:])
	}
	sample.Value = v
	return sample, nil
}

// unquoteLabelValue consumes an escaped label value up to its closing
// quote and returns the decoded value plus the remaining input.
func unquoteLabelValue(s string) (val, rest string, err error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling escape")
			}
			i++
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("unknown escape \\%c", s[i])
			}
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}

func unescapeHelp(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	s = strings.ReplaceAll(s, `\n`, "\n")
	return strings.ReplaceAll(s, `\\`, `\`)
}

func labelsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// labelsWithoutLe copies a label set minus the bucket boundary label.
func labelsWithoutLe(labels map[string]string) map[string]string {
	out := make(map[string]string, len(labels))
	for k, v := range labels {
		if k != "le" {
			out[k] = v
		}
	}
	return out
}

// checkHistogram enforces the histogram invariants per label set:
// cumulative bucket counts nondecreasing in le, an le="+Inf" bucket
// present and equal to _count, and _sum/_count present exactly once.
func checkHistogram(f *ParsedFamily) error {
	type group struct {
		les      []float64
		cum      []float64
		inf      float64
		hasInf   bool
		count    float64
		hasCount bool
		hasSum   bool
	}
	groups := map[string]*group{}
	keyOf := func(labels map[string]string) string {
		base := labelsWithoutLe(labels)
		keys := make([]string, 0, len(base))
		for k := range base {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			b.WriteString(k)
			b.WriteByte('=')
			b.WriteString(base[k])
			b.WriteByte(';')
		}
		return b.String()
	}
	get := func(labels map[string]string) *group {
		k := keyOf(labels)
		g := groups[k]
		if g == nil {
			g = &group{}
			groups[k] = g
		}
		return g
	}
	for _, sm := range f.Samples {
		switch sm.Name {
		case f.Name + "_bucket":
			le, ok := sm.Labels["le"]
			if !ok {
				return fmt.Errorf("obstest: histogram %s: bucket without le", f.Name)
			}
			g := get(sm.Labels)
			if le == "+Inf" {
				g.inf, g.hasInf = sm.Value, true
				continue
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return fmt.Errorf("obstest: histogram %s: bad le %q", f.Name, le)
			}
			g.les = append(g.les, bound)
			g.cum = append(g.cum, sm.Value)
		case f.Name + "_sum":
			get(sm.Labels).hasSum = true
		case f.Name + "_count":
			g := get(sm.Labels)
			g.count, g.hasCount = sm.Value, true
		}
	}
	for _, g := range groups {
		if !g.hasInf {
			return fmt.Errorf("obstest: histogram %s: missing le=\"+Inf\" bucket", f.Name)
		}
		if !g.hasSum || !g.hasCount {
			return fmt.Errorf("obstest: histogram %s: missing _sum or _count", f.Name)
		}
		if g.inf != g.count {
			return fmt.Errorf("obstest: histogram %s: +Inf bucket %v != _count %v", f.Name, g.inf, g.count)
		}
		prev := 0.0
		for i, c := range g.cum {
			if i > 0 && g.les[i] <= g.les[i-1] {
				return fmt.Errorf("obstest: histogram %s: le bounds not increasing", f.Name)
			}
			if c < prev {
				return fmt.Errorf("obstest: histogram %s: cumulative bucket counts decrease", f.Name)
			}
			prev = c
		}
		if g.inf < prev {
			return fmt.Errorf("obstest: histogram %s: +Inf bucket below last finite bucket", f.Name)
		}
	}
	return nil
}

// Value returns the value of the series with the given name and exact
// label set. For histograms pass the full series name (name_sum,
// name_count, or name_bucket with an le label).
func (s *Scrape) Value(series string, labels map[string]string) (float64, bool) {
	if labels == nil {
		labels = map[string]string{}
	}
	for _, f := range s.Families {
		if !sampleBelongs(f, series) {
			continue
		}
		for _, sm := range f.Samples {
			if sm.Name == series && labelsEqual(sm.Labels, labels) {
				return sm.Value, true
			}
		}
	}
	return 0, false
}

// HistBuckets returns the finite bucket bounds and cumulative counts
// for histogram `name` restricted to the given non-le label set. The
// +Inf bucket is appended as the final entry of cum, so cum has one
// more entry than les.
func (s *Scrape) HistBuckets(name string, labels map[string]string) (les, cum []float64, ok bool) {
	if labels == nil {
		labels = map[string]string{}
	}
	f := s.Families[name]
	if f == nil || f.Type != "histogram" {
		return nil, nil, false
	}
	type entry struct {
		le  float64
		cum float64
	}
	var entries []entry
	var inf float64
	var hasInf bool
	for _, sm := range f.Samples {
		if sm.Name != name+"_bucket" || !labelsEqual(labelsWithoutLe(sm.Labels), labels) {
			continue
		}
		le := sm.Labels["le"]
		if le == "+Inf" {
			inf, hasInf = sm.Value, true
			continue
		}
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return nil, nil, false
		}
		entries = append(entries, entry{bound, sm.Value})
	}
	if !hasInf {
		return nil, nil, false
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].le < entries[j].le })
	for _, e := range entries {
		les = append(les, e.le)
		cum = append(cum, e.cum)
	}
	cum = append(cum, inf)
	return les, cum, true
}
