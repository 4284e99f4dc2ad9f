package pnio

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/petri"
)

// TestParseRejectsMalformed is the table test for the parser hardening:
// each malformed input must be rejected with a line-numbered error
// mentioning the offense, instead of being silently accepted or
// deferred to an unnumbered builder error.
func TestParseRejectsMalformed(t *testing.T) {
	hugeTrans := "net n\nplace p *\ntrans t : " +
		strings.Repeat("p ", maxArcsLine) + "-> p\n"
	cases := []struct {
		name string
		src  string
		want string // substring of the error
	}{
		{"duplicate-place", "net n\nplace p\nplace p\n", "line 3: duplicate place"},
		{"duplicate-trans", "net n\nplace p *\ntrans t : p -> p\ntrans t : p -> p\n", "line 4: duplicate transition"},
		{"duplicate-in-arc", "net n\nplace p *\ntrans t : p p -> p\n", "line 3: duplicate input arc"},
		{"duplicate-out-arc", "net n\nplace p *\nplace q\ntrans t : p -> q q\n", "line 4: duplicate output arc"},
		{"too-many-arcs", hugeTrans, "line 3: more than"},
		{"star-place-name", "net n\nplace *\n", "initial-marking marker"},
		{"colon-in-place", "net n\nplace a:b\n", "contains ':' or '->'"},
		{"arrow-in-place", "net n\nplace a->b\n", "contains ':' or '->'"},
		{"hash-place", "net n\nplace p #q\n", `unexpected "#q"`},
		{"long-name", "net n\nplace " + strings.Repeat("x", maxNameLen+1) + "\n", "longer than"},
		{"missing-arrow", "net n\nplace p\ntrans t : p\n", "missing '->'"},
		{"missing-colon", "net n\nplace p\ntrans t p -> p\n", "missing ':'"},
		{"trans-before-net", "trans t : p -> p\n", "'trans' before 'net'"},
		{"empty-input", "", "empty input"},
		{"comments-only", "# a\n\n# b\n", "empty input"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.src))
			if err == nil {
				t.Fatalf("Parse accepted malformed input %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestParseAcceptsMaxArcs pins the cap boundary: exactly maxArcsLine
// arcs on one line is still legal.
func TestParseAcceptsMaxArcs(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("net n\n")
	for i := 0; i < maxArcsLine; i++ {
		sb.WriteString("place p")
		sb.WriteString(itoa(i))
		if i == 0 {
			sb.WriteString(" *")
		}
		sb.WriteString("\n")
	}
	sb.WriteString("trans t :")
	for i := 0; i < maxArcsLine/2; i++ {
		sb.WriteString(" p" + itoa(i))
	}
	sb.WriteString(" ->")
	for i := maxArcsLine / 2; i < maxArcsLine; i++ {
		sb.WriteString(" p" + itoa(i))
	}
	sb.WriteString("\n")
	if _, err := Parse(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("Parse rejected a net at the arc cap: %v", err)
	}
}

func itoa(i int) string { return strconv.Itoa(i) }

// TestParseLineCap pins the 1 MiB line cap from both sides: a line that
// fits the cap with its newline parses, one byte more is refused, and
// the error says why.
func TestParseLineCap(t *testing.T) {
	const capBytes = 1 << 20
	prefix := "net n\nplace p *\n"
	comment := func(n int) string { return "#" + strings.Repeat("x", n-1) }

	fits := prefix + comment(capBytes-1) + "\ntrans t : p -> p\n"
	n, err := Parse(strings.NewReader(fits))
	if err != nil {
		t.Fatalf("Parse rejected a %d-byte line: %v", capBytes-1, err)
	}
	if n.NumTrans() != 1 {
		t.Fatalf("lines after the long one were lost: %d transitions", n.NumTrans())
	}

	for _, src := range []string{
		prefix + comment(capBytes) + "\ntrans t : p -> p\n",
		prefix + comment(capBytes+1), // no newline: still over the cap
	} {
		_, err := Parse(strings.NewReader(src))
		if err == nil {
			t.Fatal("Parse accepted a line longer than 1 MiB")
		}
		if !strings.Contains(err.Error(), "pnio:") || !strings.Contains(err.Error(), "token too long") {
			t.Fatalf("error %q does not name the cause", err)
		}
	}
}

// TestParseLineShapes pins how the line reader treats the shapes real
// files have: CRLF endings, leading tabs, blank and comment lines are
// all harmless, a trailing comment is not a comment (the format has
// whole-line comments only) and is refused where it lands, and Unicode
// space separates fields the way ASCII space does.
func TestParseLineShapes(t *testing.T) {
	src := "\t# header\r\n" +
		"net\tshapes\r\n" +
		"\r\n" +
		"\t place  p0 * \r\n" +
		"place\u00a0p1\r\n" +
		"place p2\n" +
		"  trans  t0  :  p0   ->  p1 \r\n" +
		"\ttrans t1:p1->p0\u2003p2\r\n" +
		"trans t\u00a02 : p2 -> p2"
	n, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n.Name() != "shapes" || n.NumPlaces() != 3 || n.NumTrans() != 3 {
		t.Fatalf("parsed %q with %d places, %d transitions", n.Name(), n.NumPlaces(), n.NumTrans())
	}
	for i, want := range []string{"p0", "p1", "p2"} {
		if got := n.PlaceName(petri.Place(i)); got != want {
			t.Errorf("place %d is %q, want %q", i, got, want)
		}
	}
	// A transition name is everything before the colon, so a Unicode
	// space (U+00A0 here) survives inside one; ASCII space is refused.
	for i, want := range []string{"t0", "t1", "t\u00a02"} {
		if got := n.TransName(petri.Trans(i)); got != want {
			t.Errorf("transition %d is %q, want %q", i, got, want)
		}
	}
	if got := n.Post(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("t1 outputs %v, want [0 2]", got)
	}
	if got := n.InitialPlaces(); len(got) != 1 || got[0] != 0 {
		t.Errorf("initial places %v, want [0]", got)
	}

	for _, tc := range []struct{ name, src, want string }{
		{"net", "net n # c\n", "line 1: want 'net <name>'"},
		{"place", "net n\nplace p * # c\n", "line 2: want 'place <name> [*]'"},
		{"trans", "net n\nplace p *\ntrans t : p -> p # c\n", `line 3: unknown place "#"`},
		{"trans-name", "net n\nplace p *\ntrans a b : p -> p\n", "line 3: name \"a b\" contains whitespace"},
		{"arrow-before-colon", "net n\nplace p *\ntrans t -> p : p\n", "line 3: name \"t -> p\" contains whitespace"},
		{"directive-glued", "net n\nplace p *\ntransit : p -> p\n", `line 3: unknown directive "transit"`},
		{"too-many-arcs-beats-unknown", "net n\nplace p *\ntrans t : " + strings.Repeat("q ", maxArcsLine+1) + "-> p\n", "line 3: more than"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.src))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not mention %q", err, tc.want)
			}
		})
	}
}

var parseSink *petri.Net

// BenchmarkParse is the parser on the text of nsdp(8) (2.6 KB, 56
// places, 40 transitions): the allocation gate in scripts/check.sh
// reads its B/op.
func BenchmarkParse(b *testing.B) {
	var buf bytes.Buffer
	if err := Write(&buf, models.NSDP(8)); err != nil {
		b.Fatal(err)
	}
	src := buf.String()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := Parse(strings.NewReader(src))
		if err != nil {
			b.Fatal(err)
		}
		parseSink = n
	}
}
