// Package pnio reads and writes Petri nets in a small line-oriented
// textual format, and exports nets and reachability graphs to Graphviz
// DOT, so the command-line tools can exchange models.
//
// The .pn format:
//
//	net <name>
//	place <name> [*]        # '*' marks the place initially
//	trans <name> : <in>...  -> <out>...
//	# comment
//
// Place lines must precede the transition lines that use them. Names may
// contain any non-whitespace characters except the format's own
// metacharacters: a name may not be "*", may not start with "#", and may
// not contain ":" or "->" (those would be ambiguous on a trans line and
// break the Parse/Write round trip).
//
// Parse is hardened for untrusted input: it enforces caps on name
// length, place/transition counts and arcs per transition, and reports
// duplicate names and duplicate arcs with the offending line number.
package pnio

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/petri"
)

// Limits on untrusted input. They are far above anything the Table 1
// models need but stop adversarial inputs from ballooning the builder
// (every arc list is materialized, and conflict-cluster construction is
// quadratic in cluster size).
const (
	maxNameLen  = 256
	maxPlaces   = 1 << 20
	maxTrans    = 1 << 20
	maxArcsLine = 1 << 12 // arcs on one trans line, both sides together
	maxLineLen  = 1 << 20 // one line, newline included
)

// checkName rejects names that could not survive a Write/Parse round
// trip: the format's own metacharacters, and absurd lengths.
func checkName(name string) error {
	switch {
	case name == "":
		return fmt.Errorf("empty name")
	case len(name) > maxNameLen:
		return fmt.Errorf("name longer than %d bytes", maxNameLen)
	case strings.ContainsAny(name, " \t\n\r\v\f"):
		return fmt.Errorf("name %q contains whitespace", name)
	case name == "*":
		return fmt.Errorf("name %q is the initial-marking marker", name)
	case strings.HasPrefix(name, "#"):
		return fmt.Errorf("name %q would parse as a comment", name)
	case strings.Contains(name, ":") || strings.Contains(name, "->"):
		return fmt.Errorf("name %q contains ':' or '->'", name)
	}
	return nil
}

// Parse reads a net in .pn format. What it allocates grows with the
// input: the line buffer starts small and doubles up to maxLineLen, and
// a line is split in place, so only the names the net keeps are copied.
func Parse(r io.Reader) (*petri.Net, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLineLen)
	p := parser{places: make(map[string]petri.Place), transSeen: make(map[string]bool)}
	for sc.Scan() {
		p.lineNo++
		if err := p.line(bytes.TrimSpace(sc.Bytes())); err != nil {
			return nil, fmt.Errorf("pnio: line %d: %w", p.lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pnio: %w", err)
	}
	if p.b == nil {
		return nil, fmt.Errorf("pnio: empty input")
	}
	return p.b.Build()
}

// parser is the state of one Parse call.
type parser struct {
	b         *petri.Builder // nil until the net header
	places    map[string]petri.Place
	transSeen map[string]bool
	lineNo    int
	// arcSide[p] is the serial of the last arc list that named place p
	// and side the serial of the list being read, so a duplicate arc is
	// one comparison; ins and outs are the lists themselves, reused
	// from line to line (the builder copies them).
	arcSide   []int
	side      int
	ins, outs []petri.Place
}

// line parses one line, already trimmed of surrounding space.
func (p *parser) line(line []byte) error {
	if len(line) == 0 || line[0] == '#' {
		return nil
	}
	directive, rest := nextField(line)
	switch string(directive) {
	case "net":
		if p.b != nil {
			return errors.New("duplicate net header")
		}
		name, rest := nextField(rest)
		if extra, _ := nextField(rest); name == nil || extra != nil {
			return errors.New("want 'net <name>'")
		}
		if len(name) > maxNameLen {
			return fmt.Errorf("name longer than %d bytes", maxNameLen)
		}
		p.b = petri.NewBuilder(string(name))
	case "place":
		if p.b == nil {
			return errors.New("'place' before 'net'")
		}
		nameField, rest := nextField(rest)
		star, rest := nextField(rest)
		if extra, _ := nextField(rest); nameField == nil || extra != nil {
			return errors.New("want 'place <name> [*]'")
		}
		name := string(nameField)
		if err := checkName(name); err != nil {
			return err
		}
		if _, dup := p.places[name]; dup {
			return fmt.Errorf("duplicate place %q", name)
		}
		if len(p.places) >= maxPlaces {
			return fmt.Errorf("more than %d places", maxPlaces)
		}
		pl := p.b.Place(name)
		p.places[name] = pl
		p.arcSide = append(p.arcSide, 0)
		if star != nil {
			if string(star) != "*" {
				return fmt.Errorf("unexpected %q", star)
			}
			p.b.Mark(pl)
		}
	case "trans":
		if p.b == nil {
			return errors.New("'trans' before 'net'")
		}
		// trans name : in... -> out...
		rest = bytes.TrimSpace(rest)
		colon := bytes.IndexByte(rest, ':')
		if colon < 0 {
			return errors.New("missing ':'")
		}
		name := string(bytes.TrimSpace(rest[:colon]))
		if name == "" {
			return errors.New("empty transition name")
		}
		if err := checkName(name); err != nil {
			return err
		}
		if p.transSeen[name] {
			return fmt.Errorf("duplicate transition %q", name)
		}
		if len(p.transSeen) >= maxTrans {
			return fmt.Errorf("more than %d transitions", maxTrans)
		}
		p.transSeen[name] = true
		arrow := bytes.Index(rest[colon:], []byte("->"))
		if arrow < 0 {
			return errors.New("missing '->'")
		}
		inPart, outPart := rest[colon+1:colon+arrow], rest[colon+arrow+2:]
		if countFields(inPart)+countFields(outPart) > maxArcsLine {
			return fmt.Errorf("more than %d arcs on one transition", maxArcsLine)
		}
		var err error
		if p.ins, err = p.resolve(p.ins[:0], inPart, "input"); err != nil {
			return err
		}
		if p.outs, err = p.resolve(p.outs[:0], outPart, "output"); err != nil {
			return err
		}
		p.b.TransArcs(name, p.ins, p.outs)
	default:
		return fmt.Errorf("unknown directive %q", directive)
	}
	return nil
}

// resolve appends the places named in one side of a trans line to dst.
func (p *parser) resolve(dst []petri.Place, part []byte, side string) ([]petri.Place, error) {
	p.side++
	for name, rest := nextField(part); name != nil; name, rest = nextField(rest) {
		pl, ok := p.places[string(name)]
		if !ok {
			return dst, fmt.Errorf("unknown place %q", name)
		}
		if p.arcSide[pl] == p.side {
			return dst, fmt.Errorf("duplicate %s arc %q", side, name)
		}
		p.arcSide[pl] = p.side
		dst = append(dst, pl)
	}
	return dst, nil
}

// nextField splits the first field off s: a maximal run of non-space
// bytes, where space is what strings.Fields calls space (so U+00A0
// separates fields, as it always has). field is nil when s has none.
func nextField(s []byte) (field, rest []byte) {
	start := 0
	for start < len(s) {
		n := spaceLen(s[start:])
		if n == 0 {
			break
		}
		start += n
	}
	end := start
	for end < len(s) && spaceLen(s[end:]) == 0 {
		if s[end] < utf8.RuneSelf {
			end++
		} else {
			_, n := utf8.DecodeRune(s[end:])
			end += n
		}
	}
	if start == end {
		return nil, nil
	}
	return s[start:end], s[end:]
}

func countFields(s []byte) int {
	n := 0
	for f, rest := nextField(s); f != nil; f, rest = nextField(rest) {
		n++
	}
	return n
}

// spaceLen is the width of the space rune s starts with, 0 if it starts
// with anything else. s is not empty.
func spaceLen(s []byte) int {
	if c := s[0]; c < utf8.RuneSelf {
		if c == ' ' || ('\t' <= c && c <= '\r') {
			return 1
		}
		return 0
	}
	if r, n := utf8.DecodeRune(s); unicode.IsSpace(r) {
		return n
	}
	return 0
}

// Write renders the net in .pn format. Parse(Write(n)) reproduces n;
// Write refuses nets whose names contain the format's metacharacters,
// since their output could not be parsed back.
func Write(w io.Writer, n *petri.Net) error {
	for p := petri.Place(0); int(p) < n.NumPlaces(); p++ {
		if err := checkName(n.PlaceName(p)); err != nil {
			return fmt.Errorf("pnio: place %d: %v", p, err)
		}
	}
	for t := petri.Trans(0); int(t) < n.NumTrans(); t++ {
		if err := checkName(n.TransName(t)); err != nil {
			return fmt.Errorf("pnio: transition %d: %v", t, err)
		}
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "net %s\n", n.Name())
	marked := make(map[petri.Place]bool)
	for _, p := range n.InitialPlaces() {
		marked[p] = true
	}
	for p := petri.Place(0); int(p) < n.NumPlaces(); p++ {
		if marked[p] {
			fmt.Fprintf(bw, "place %s *\n", n.PlaceName(p))
		} else {
			fmt.Fprintf(bw, "place %s\n", n.PlaceName(p))
		}
	}
	for t := petri.Trans(0); int(t) < n.NumTrans(); t++ {
		fmt.Fprintf(bw, "trans %s :", n.TransName(t))
		for _, p := range n.Pre(t) {
			fmt.Fprintf(bw, " %s", n.PlaceName(p))
		}
		fmt.Fprint(bw, " ->")
		for _, p := range n.Post(t) {
			fmt.Fprintf(bw, " %s", n.PlaceName(p))
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// NetDOT renders the net structure as a Graphviz digraph: circles for
// places (doubled when initially marked), boxes for transitions.
func NetDOT(w io.Writer, n *petri.Net) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %q {\n  rankdir=LR;\n", n.Name())
	marked := make(map[petri.Place]bool)
	for _, p := range n.InitialPlaces() {
		marked[p] = true
	}
	for p := petri.Place(0); int(p) < n.NumPlaces(); p++ {
		shape := "circle"
		if marked[p] {
			shape = "doublecircle"
		}
		fmt.Fprintf(bw, "  p%d [label=%q shape=%s];\n", p, n.PlaceName(p), shape)
	}
	for t := petri.Trans(0); int(t) < n.NumTrans(); t++ {
		fmt.Fprintf(bw, "  t%d [label=%q shape=box];\n", t, n.TransName(t))
		for _, p := range n.Pre(t) {
			fmt.Fprintf(bw, "  p%d -> t%d;\n", p, t)
		}
		for _, p := range n.Post(t) {
			fmt.Fprintf(bw, "  t%d -> p%d;\n", t, p)
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// GraphDOT renders an explicit reachability graph as a Graphviz digraph.
// Vertex labels list the marked places; edge labels the fired transition.
func GraphDOT(w io.Writer, n *petri.Net, states []petri.Marking, edges func(from int) []Edge) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %q {\n", n.Name()+" RG")
	for i, m := range states {
		label := markingLabel(n, m)
		fmt.Fprintf(bw, "  s%d [label=%q];\n", i, label)
	}
	for i := range states {
		for _, e := range edges(i) {
			fmt.Fprintf(bw, "  s%d -> s%d [label=%q];\n", i, e.To, n.TransName(e.T))
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// Edge mirrors reach.Edge without importing it (pnio stays dependency-light).
type Edge struct {
	T  petri.Trans
	To int
}

func markingLabel(n *petri.Net, m petri.Marking) string {
	var names []string
	for _, p := range m.Places() {
		names = append(names, n.PlaceName(p))
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}
