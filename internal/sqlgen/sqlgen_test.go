package sqlgen

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"ogdp/internal/fd"
	"ogdp/internal/normalize"
	"ogdp/internal/table"
)

func grants() *table.Table {
	t := table.New("grants.csv", []string{"grant_id", "city", "amount", "notes"})
	for i := 0; i < 30; i++ {
		notes := "ok"
		if i%5 == 0 {
			notes = ""
		}
		t.AppendRow([]string{
			strconv.Itoa(i + 1),
			[]string{"Waterloo", "Toronto", "Montreal"}[i%3],
			fmt.Sprintf("%d.5", 100+i),
			notes,
		})
	}
	return t
}

func TestSchemaBasics(t *testing.T) {
	ddl := Schema([]*table.Table{grants()}, Options{})
	wants := []string{
		`CREATE TABLE "grants" (`,
		`"grant_id" INTEGER NOT NULL`,
		`"city" TEXT NOT NULL`,
		`"amount" REAL NOT NULL`,
		`"notes" TEXT`, // has nulls: no NOT NULL
		`PRIMARY KEY ("grant_id")`,
	}
	for _, w := range wants {
		if !strings.Contains(ddl, w) {
			t.Errorf("DDL missing %q:\n%s", w, ddl)
		}
	}
	if strings.Contains(ddl, `"notes" TEXT NOT NULL`) {
		t.Error("nullable column marked NOT NULL")
	}
}

func TestSchemaPostgresTypes(t *testing.T) {
	ddl := Schema([]*table.Table{grants()}, Options{Dialect: "postgres"})
	if !strings.Contains(ddl, "BIGINT") || !strings.Contains(ddl, "DOUBLE PRECISION") {
		t.Errorf("postgres types missing:\n%s", ddl)
	}
}

func TestSchemaCompositeKey(t *testing.T) {
	tb := table.New("panel.csv", []string{"city", "year", "value"})
	for _, c := range []string{"Waterloo", "Toronto"} {
		for y := 2018; y <= 2022; y++ {
			tb.AppendRow([]string{c, strconv.Itoa(y), "1"})
		}
	}
	ddl := Schema([]*table.Table{tb}, Options{})
	if !strings.Contains(ddl, `PRIMARY KEY ("city", "year")`) {
		t.Errorf("composite key missing:\n%s", ddl)
	}
}

func TestSchemaForeignKeys(t *testing.T) {
	lookup := table.New("species.csv", []string{"species", "grp"})
	for i := 0; i < 20; i++ {
		lookup.AppendRow([]string{fmt.Sprintf("Species %02d", i), "G"})
	}
	facts := table.New("landings.csv", []string{"rec_id", "species", "weight"})
	for r := 0; r < 80; r++ {
		facts.AppendRow([]string{strconv.Itoa(r + 1), fmt.Sprintf("Species %02d", r%20), strconv.Itoa(r)})
	}
	ddl := Schema([]*table.Table{lookup, facts}, Options{ForeignKeys: true})
	if !strings.Contains(ddl, `FOREIGN KEY ("species") REFERENCES "species" ("species")`) {
		t.Errorf("foreign key missing:\n%s", ddl)
	}
}

func TestSchemaOfBCNFDecomposition(t *testing.T) {
	// End to end: decompose a denormalized table, emit its schema with
	// fks — the paper's "serve the base tables" suggestion.
	orig := table.New("awards.csv", []string{"award_id", "city", "province", "amount"})
	cities := []struct{ c, p string }{{"Waterloo", "ON"}, {"Toronto", "ON"}, {"Montreal", "QC"}}
	for i := 0; i < 60; i++ {
		c := cities[i%3]
		orig.AppendRow([]string{strconv.Itoa(i + 1), c.c, c.p, strconv.Itoa(1000 + i)})
	}
	res := normalize.Decompose(orig, fd.Discover(orig, fd.MaxLHS), fd.MaxLHS, rand.New(rand.NewSource(2)))
	if res.InBCNF() {
		t.Fatal("expected decomposition")
	}
	ddl := Schema(res.Tables, Options{ForeignKeys: true})
	if !strings.Contains(ddl, "CREATE TABLE") {
		t.Fatalf("no DDL:\n%s", ddl)
	}
	count := strings.Count(ddl, "CREATE TABLE")
	if count != len(res.Tables) {
		t.Errorf("CREATE TABLE count = %d, want %d", count, len(res.Tables))
	}
}

func TestIdentifier(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Fund Code", `"fund_code"`},
		{"fund_code", `"fund_code"`},
		{"  weird--name  ", `"weird_name"`},
		{"123abc", `"t_123abc"`},
		{"%%%", `"col"`},
		{"UPPER", `"upper"`},
	}
	for _, c := range cases {
		if got := Identifier(c.in); got != c.want {
			t.Errorf("Identifier(%q) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestNoKeyTable(t *testing.T) {
	tb := table.FromRows("dup.csv", []string{"a", "b"}, [][]string{
		{"x", "y"}, {"x", "y"},
	})
	ddl := Schema([]*table.Table{tb}, Options{})
	if strings.Contains(ddl, "PRIMARY KEY") {
		t.Errorf("keyless table got a primary key:\n%s", ddl)
	}
}
