package persist

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pegasus/internal/summary"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func testSummary(t testing.TB) *summary.Summary {
	t.Helper()
	return summary.New([]uint32{0, 0, 1, 2, 2, 2}, [][]uint32{{1}, {2}, nil}, [][]float64{{1}, {3.5}, nil})
}

const keyA = "aaaa1111bbbb2222cccc3333dddd4444aaaa1111bbbb2222cccc3333dddd4444"

func TestStorePutGetRoundTrip(t *testing.T) {
	st := testStore(t)
	s := testSummary(t)
	if err := st.Put(keyA, Artifact{Summary: s}); err != nil {
		t.Fatalf("put: %v", err)
	}
	a, ok, err := st.Get(keyA)
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if a.Summary == nil || a.Summary.NumNodes() != s.NumNodes() {
		t.Fatalf("got %+v", a)
	}
	stats := st.Stats()
	if stats.Puts != 1 || stats.Hits != 1 || stats.Misses != 0 {
		t.Errorf("stats = %+v, want 1 put, 1 hit, 0 misses", stats)
	}
	if stats.BytesWritten == 0 || stats.BytesRead != stats.BytesWritten {
		t.Errorf("bytes written %d / read %d, want equal and non-zero", stats.BytesWritten, stats.BytesRead)
	}
}

func TestStoreGetMissing(t *testing.T) {
	st := testStore(t)
	a, ok, err := st.Get(keyA)
	if ok || err != nil {
		t.Fatalf("missing key: a=%+v ok=%v err=%v, want miss with nil error", a, ok, err)
	}
	if st.Stats().Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Stats().Misses)
	}
}

// TestStoreGetCorrupt: a damaged artifact file is a typed miss — the caller
// sees ErrCorrupt and rebuilds; nothing panics.
func TestStoreGetCorrupt(t *testing.T) {
	st := testStore(t)
	if err := st.Put(keyA, Artifact{Summary: testSummary(t)}); err != nil {
		t.Fatal(err)
	}
	path, _ := st.Path(keyA)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	a, ok, err := st.Get(keyA)
	if ok {
		t.Fatalf("corrupt artifact decoded: %+v", a)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v does not wrap ErrCorrupt", err)
	}
	// A fresh Put over the corrupt file heals the entry.
	if err := st.Put(keyA, Artifact{Summary: testSummary(t)}); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Get(keyA); !ok || err != nil {
		t.Fatalf("after healing put: ok=%v err=%v", ok, err)
	}
}

func TestStoreRejectsUnsafeKeys(t *testing.T) {
	st := testStore(t)
	for _, key := range []string{"", ".", "..", "a/b", "../escape", "a.b", "a b", "k\x00", string(make([]byte, 200))} {
		if _, err := st.Path(key); err == nil {
			t.Errorf("key %q accepted", key)
		}
		if err := st.Put(key, Artifact{Summary: testSummary(t)}); err == nil {
			t.Errorf("put under key %q succeeded", key)
		}
	}
}

func TestStoreGC(t *testing.T) {
	st := testStore(t)
	live, dead := keyA, "dead0000"+keyA[8:]
	for _, k := range []string{live, dead} {
		if err := st.Put(k, Artifact{Summary: testSummary(t)}); err != nil {
			t.Fatal(err)
		}
	}
	// A stranded Put temporary from a "crash".
	stray := filepath.Join(st.Dir(), tmpPrefix+"stranded")
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// An unrelated file the GC must leave alone.
	other := filepath.Join(st.Dir(), "README")
	if err := os.WriteFile(other, []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}

	removed, err := st.GC(func(k string) bool { return k == live })
	if err != nil {
		t.Fatalf("gc: %v", err)
	}
	if removed != 1 {
		t.Errorf("gc removed %d artifacts, want 1", removed)
	}
	keys, err := st.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != live {
		t.Errorf("keys after gc = %v, want [%s]", keys, live)
	}
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Error("gc left the stranded temp file")
	}
	if _, err := os.Stat(other); err != nil {
		t.Error("gc removed an unrelated file")
	}
}

// TestStoreConcurrentPutGet exercises the atomicity contract under -race:
// concurrent writers and readers on the same key must only ever observe a
// complete artifact or a miss.
func TestStoreConcurrentPutGet(t *testing.T) {
	st := testStore(t)
	s := testSummary(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := st.Put(keyA, Artifact{Summary: s}); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				a, ok, err := st.Get(keyA)
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if ok && a.Summary.NumNodes() != s.NumNodes() {
					t.Error("observed a partial artifact")
					return
				}
			}
		}()
	}
	wg.Wait()
}
