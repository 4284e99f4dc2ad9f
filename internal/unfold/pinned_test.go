package unfold_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/models"
	"repro/internal/petri"
	"repro/internal/randnet"
	"repro/internal/unfold"
)

// pinnedPrefixes holds, per net, the prefix size and a digest of its
// event sequence (see prefixDigest). A change to the construction that
// moves an event, a condition ID or a cutoff decision moves a digest.
var pinnedPrefixes = map[string]struct {
	events, conds, cutoffs int
	digest                 string
}{
	"nsdp(2)":                      {14, 14, 4, "14cb7471b3ebeae6"},
	"nsdp(4)":                      {28, 28, 8, "0c59a89244244c39"},
	"nsdp(6)":                      {42, 42, 12, "8c9b3af2413fb165"},
	"nsdp(8)":                      {56, 56, 16, "bd7f022525026ce9"},
	"nsdp(10)":                     {70, 70, 20, "6cb72da14ef37fcc"},
	"asat(2)":                      {22, 34, 2, "baf8cc34a5f47a01"},
	"asat(4)":                      {72, 120, 4, "d2faa5eac027e808"},
	"asat(8)":                      {232, 408, 8, "8d64ca89d09c9e15"},
	"over(2)":                      {30, 34, 8, "c2006197138961d1"},
	"over(3)":                      {45, 51, 12, "ee955b0d7ff35f3d"},
	"over(4)":                      {60, 68, 16, "45211f83fdfb0dc6"},
	"over(5)":                      {75, 85, 20, "1447759af2ba1be3"},
	"rw(6)":                        {14, 20, 7, "33dbe5ab7d31e42f"},
	"rw(9)":                        {20, 29, 10, "fb1436aeecee712f"},
	"rw(12)":                       {26, 38, 13, "94d8f238a8b9eafa"},
	"rw(15)":                       {32, 47, 16, "365048c444609d02"},
	"fig1(1)":                      {1, 2, 0, "3e79a01bc7e13f2e"},
	"fig1(2)":                      {2, 4, 0, "b1d3e250e658672d"},
	"fig1(3)":                      {3, 6, 0, "1355fe92e78b97e6"},
	"fig1(4)":                      {4, 8, 0, "97c56656c7a1ed65"},
	"fig1(5)":                      {5, 10, 0, "8149f616a9fdd48c"},
	"fig1(6)":                      {6, 12, 0, "a2c429252bc6b908"},
	"fig1(7)":                      {7, 14, 0, "21613b626079d4bd"},
	"fig1(8)":                      {8, 16, 0, "187c8e43c4a2965b"},
	"fig1(9)":                      {9, 18, 0, "251103e7e7e83621"},
	"fig1(10)":                     {10, 20, 0, "1ebf61e8642c4d80"},
	"fig2(1)":                      {2, 3, 0, "e71d20486b172c88"},
	"fig2(2)":                      {4, 6, 0, "1cfd9eb9b966139f"},
	"fig2(3)":                      {6, 9, 0, "8b566dca3780fe12"},
	"fig2(4)":                      {8, 12, 0, "d13e58cf4ca243e9"},
	"fig2(5)":                      {10, 15, 0, "bb9ca46bf97f273a"},
	"fig2(6)":                      {12, 18, 0, "d4f920b944f9dd67"},
	"fig2(7)":                      {14, 21, 0, "fc3ecbc6dc0cd32a"},
	"fig2(8)":                      {16, 24, 0, "8b4fb8ff7034d07f"},
	"fig3":                         {3, 5, 0, "e351abec51c0303c"},
	"fig5":                         {2, 5, 0, "6a3ff8af66d30ea2"},
	"fig7":                         {4, 6, 0, "24201a0eb5f040ea"},
	"randnet(0)":                   {10, 9, 3, "989cf8944a93c443"},
	"randnet(1)":                   {17, 13, 6, "a55b198cfc719183"},
	"randnet(2)":                   {15, 12, 6, "63fdb366e7a784f5"},
	"randnet(3)":                   {15, 12, 7, "040c3006d1e4b297"},
	"randnet(4)":                   {39, 30, 17, "49e1cf73202a596b"},
	"randnet(5)":                   {11, 9, 2, "7cdfc40ddfe7eb80"},
	"randnet(6)":                   {25, 22, 11, "d7386e1c752b881e"},
	"randnet(7)":                   {25, 19, 10, "33166d14834285a5"},
	"randnet(8)":                   {12, 9, 5, "48d984ad7334cce0"},
	"randnet(9)":                   {17, 13, 5, "0cb5354672ed9df0"},
	"randnet(10)":                  {12, 9, 5, "a4b92e4fc93dcf1e"},
	"randnet(11)":                  {27, 22, 11, "637462da28d9cc25"},
	"randnet(12)":                  {11, 9, 4, "35d5b415c670b1dc"},
	"randnet(13)":                  {17, 13, 8, "013c46c4736ccea3"},
	"randnet(14)":                  {15, 11, 8, "c1807f856a18e286"},
	"randnet(15)":                  {31, 20, 13, "ae1b04e99fa830ad"},
	"randnet(16)":                  {17, 17, 6, "054e47f5a4e292eb"},
	"randnet(17)":                  {17, 17, 6, "31cfb67ebea9b729"},
	"randnet(18)":                  {22, 17, 9, "0f6263eb49c52798"},
	"randnet(19)":                  {14, 11, 7, "cfca426e863f0a6b"},
	"randnet(20)":                  {12, 11, 4, "7fe8a1a830a3ffb5"},
	"randnet(21)":                  {12, 11, 3, "ec33c6da532d54e6"},
	"randnet(22)":                  {11, 9, 3, "6e2370ebd9dea8e2"},
	"randnet(23)":                  {15, 13, 4, "b62192541b947531"},
	"randnet(24)":                  {14, 11, 6, "e9541a0d23ad07b1"},
	"randnet(25)":                  {12, 9, 6, "108607561600357e"},
	"randnet(26)":                  {17, 18, 4, "72fa67050262eb2a"},
	"randnet(27)":                  {13, 16, 1, "d1853694c9421b56"},
	"randnet(28)":                  {44, 29, 23, "04e08ccfaf86404e"},
	"randnet(29)":                  {11, 9, 3, "13ec836156cd00e4"},
	"randnet(30)":                  {17, 13, 5, "580f57448c456806"},
	"randnet(31)":                  {15, 12, 5, "566ef86368b6bcf1"},
	"randnet(32)":                  {11, 11, 4, "5e3d68db46ae84eb"},
	"randnet(33)":                  {11, 9, 5, "d5a03dc02b096b37"},
	"randnet(34)":                  {11, 9, 4, "549a6343a7883d87"},
	"randnet(35)":                  {13, 11, 4, "76ab72598bab9e14"},
	"randnet(36)":                  {26, 17, 12, "800d610d9b92c109"},
	"randnet(37)":                  {11, 16, 1, "9ef876fe39222e37"},
	"randnet(38)":                  {32, 24, 13, "41d1b27e3dcea415"},
	"randnet(39)":                  {43, 27, 24, "361995791c800faa"},
	"nsdp(3)+monitor(eat0,eat1)":   {2661, 3301, 1014, "8143b83964404b28"},
	"nsdp(3)+monitor(hasL0,hasL1)": {2787, 3427, 1014, "8c7980e9ee7510ec"},
}

// pinCorpus returns the nets TestPrefixPinned holds, by name: Table 1's
// instances, the paper's figures, the randnet cross-validation seeds and
// NSDP(3) under both safety monitors of verify's TestSafetyAgreement.
func pinCorpus(t *testing.T) (names []string, nets map[string]*petri.Net) {
	nets = make(map[string]*petri.Net)
	add := func(name string, n *petri.Net) {
		names = append(names, name)
		nets[name] = n
	}
	for _, r := range bench.Table1() {
		n, err := models.ByName(r.Family, r.Size)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("%s(%d)", r.Family, r.Size), n)
	}
	for n := 1; n <= 10; n++ {
		add(fmt.Sprintf("fig1(%d)", n), models.Fig1(n))
	}
	for n := 1; n <= 8; n++ {
		add(fmt.Sprintf("fig2(%d)", n), models.Fig2(n))
	}
	add("fig3", models.Fig3())
	add("fig5", models.Fig5())
	add("fig7", models.Fig7())
	for seed := int64(0); seed < 40; seed++ {
		add(fmt.Sprintf("randnet(%d)", seed), randnet.Generate(randnet.Default(seed)))
	}
	nsdp := models.NSDP(3)
	for _, bad := range [][]string{{"eat0", "eat1"}, {"hasL0", "hasL1"}} {
		places := make([]petri.Place, len(bad))
		for i, name := range bad {
			p, ok := nsdp.PlaceByName(name)
			if !ok {
				t.Fatalf("nsdp(3) has no place %s", name)
			}
			places[i] = p
		}
		mon, _, err := petri.WithSafetyMonitor(nsdp, places)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("nsdp(3)+monitor(%s,%s)", bad[0], bad[1]), mon)
	}
	return names, nets
}

// prefixDigest is the first 16 hex digits of a SHA-256 over the event
// sequence: per event its ID, transition, preset and postset condition
// IDs and cutoff flag.
func prefixDigest(px *unfold.Prefix) string {
	h := sha256.New()
	ids := func(cs []*unfold.Cond) []int {
		out := make([]int, len(cs))
		for i, c := range cs {
			out[i] = c.ID
		}
		return out
	}
	for _, e := range px.Events {
		fmt.Fprintf(h, "%d %d %v %v %t\n", e.ID, e.T, ids(e.Pre), ids(e.Post), e.Cutoff)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestPrefixPinned holds every prefix of the corpus event for event: a
// refactor of the construction must build the same prefixes, with the
// same IDs, presets, postsets and cutoffs, in the same order.
func TestPrefixPinned(t *testing.T) {
	names, nets := pinCorpus(t)
	if len(names) != len(pinnedPrefixes) {
		t.Errorf("corpus has %d nets, %d pinned", len(names), len(pinnedPrefixes))
	}
	for _, name := range names {
		px, err := unfold.Build(nets[name], unfold.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := px.Stats()
		got := fmt.Sprintf("%d events, %d conds, %d cutoffs, digest %s",
			s.Events, s.Conditions, s.Cutoffs, prefixDigest(px))
		pin, ok := pinnedPrefixes[name]
		if !ok {
			t.Errorf("%s: not pinned (%s)", name, got)
			continue
		}
		want := fmt.Sprintf("%d events, %d conds, %d cutoffs, digest %s",
			pin.events, pin.conds, pin.cutoffs, pin.digest)
		if got != want {
			t.Errorf("%s: %s, want %s", name, got, want)
		}
	}
}
