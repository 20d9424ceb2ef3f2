package engine

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dllite"
	"repro/internal/query"
)

func TestSnapshotRoundTrip(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf, LayoutFromSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumFacts() != db.NumFacts() {
		t.Fatalf("facts: %d vs %d", back.NumFacts(), db.NumFacts())
	}
	if back.Layout != LayoutSimple {
		t.Errorf("layout = %v", back.Layout)
	}
	q := query.MustParseCQ("q(x) <- PhDStudent(x), supervisedBy(x, y), Researcher(y)")
	a1 := answerCQ(t, db, ProfilePostgres(), q)
	a2 := answerCQ(t, back, ProfilePostgres(), q)
	if len(a1) != len(a2) || a1[0][0] != a2[0][0] {
		t.Fatalf("answers differ: %v vs %v", a1, a2)
	}
}

func TestSnapshotCrossLayout(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	rdf, err := Load(&buf, LayoutRDF)
	if err != nil {
		t.Fatal(err)
	}
	if rdf.Layout != LayoutRDF {
		t.Fatalf("layout = %v", rdf.Layout)
	}
	q := query.MustParseCQ("q(x, y) <- supervisedBy(x, y)")
	if got := answerCQ(t, rdf, ProfileDB2(), q); len(got) != 2 {
		t.Fatalf("RDF-layout reload answers = %v", got)
	}
}

func TestSnapshotPreservesDictionaryIDs(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf, LayoutFromSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Damian", "Ioana", "Francois"} {
		a, okA := db.Dict.Lookup(name)
		b, okB := back.Dict.Lookup(name)
		if !okA || !okB || a != b {
			t.Errorf("dictionary id for %s: %d/%v vs %d/%v", name, a, okA, b, okB)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a snapshot"), LayoutFromSnapshot); err == nil {
		t.Fatal("garbage must be rejected")
	}
}

func TestSnapshotEmptyDB(t *testing.T) {
	db := NewDB(LayoutSimple)
	db.LoadABox(dllite.NewABox())
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf, LayoutFromSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumFacts() != 0 {
		t.Fatalf("facts = %d", back.NumFacts())
	}
}
