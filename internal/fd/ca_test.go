package fd

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ogdp/internal/gen"
)

var update = flag.Bool("update", false, "rewrite testdata/ca_fd.golden from the current engines (only after a deliberate generator change)")

// caCorpus is the CA portal at full scale with generation seed 1, the
// corpus the repository benchmark runs on. It is generated once per
// test binary and shared by every test that needs it.
var caCorpus = sync.OnceValue(func() *gen.Corpus { return gen.Generate(gen.CA(), 1.0, 1) })

// TestCAFixtureFDsUnchanged pins, for every CA table /fd accepts
// (≤ MaxColumns columns), the FD list and Cost.Cardinalities that FUN
// computed before cardinalities came from stripped partitions: the
// golden file holds each table's cardinality count, FD count and a
// digest of its FD list, plus the corpus total the benchmark reports
// as fd.cardinalities.
func TestCAFixtureFDsUnchanged(t *testing.T) {
	var b strings.Builder
	total := 0
	for _, m := range caCorpus().Metas {
		tb := m.Table
		if tb.NumCols() > MaxColumns {
			continue
		}
		fds, cost := DiscoverCost(tb, MaxLHS)
		sum := sha256.Sum256([]byte(strings.Join(fdStrings(fds), ";")))
		fmt.Fprintf(&b, "%s rows=%d cols=%d cards=%d fds=%d %x\n",
			tb.Name, tb.NumRows(), tb.NumCols(), cost.Cardinalities, cost.FDs, sum[:6])
		total += cost.Cardinalities
	}
	fmt.Fprintf(&b, "total cards=%d\n", total)
	got := b.String()

	golden := filepath.Join("testdata", "ca_fd.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	bad := 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, g, w)
			if bad++; bad == 10 {
				t.Fatal("too many differences")
			}
		}
	}
}
