package store

import (
	"fmt"
	"math"
	"os"
	"sync"
	"testing"
	"testing/quick"
)

func stores(t *testing.T) map[string]Store {
	t.Helper()
	ds, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"mem": NewMem(), "dir": ds}
}

func TestSaveLoadExists(t *testing.T) {
	//lint:ordered independent subtests; t.Run isolates each backend
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if s.Exists("k") {
				t.Error("phantom key")
			}
			if err := s.Save("k", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			if err := s.Save("k", []byte("v2")); err != nil {
				t.Fatal(err)
			}
			got, err := s.Load("k")
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "v2" {
				t.Errorf("got %q", got)
			}
			if !s.Exists("k") {
				t.Error("Exists false after Save")
			}
			if _, err := s.Load("missing"); err == nil {
				t.Error("missing key loaded")
			}
		})
	}
}

func TestSlashKeysOnDisk(t *testing.T) {
	ds, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := CheckpointKey(3, 7)
	if err := ds.Save(key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	got, err := ds.Load(key)
	if err != nil || string(got) != "x" {
		t.Fatalf("load %q: %v", got, err)
	}
	// One flat file: the '/' of the key is not a directory separator.
	if ents, err := os.ReadDir(ds.dir); err != nil || len(ents) != 1 || ents[0].IsDir() {
		t.Errorf("directory entries %v (%v), want one file", ents, err)
	}
}

func TestMemStoreIsolation(t *testing.T) {
	s := NewMem()
	data := []byte{1, 2, 3}
	if err := s.Save("k", data); err != nil {
		t.Fatal(err)
	}
	data[0] = 99 // caller mutates its buffer
	got, _ := s.Load("k")
	if got[0] != 1 {
		t.Error("store aliased the caller's buffer")
	}
	got[1] = 99 // reader mutates the returned buffer
	got2, _ := s.Load("k")
	if got2[1] != 2 {
		t.Error("store returned an aliased buffer")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewMem()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := LatestKey(g)
			for i := 0; i < 200; i++ {
				if err := s.Save(key, EncodeParams([]float64{float64(g), float64(i)})); err != nil {
					t.Error(err)
					return
				}
				data, err := s.Load(key)
				if err != nil {
					t.Error(err)
					return
				}
				w, err := DecodeParams(data)
				if err != nil || w[0] != float64(g) {
					t.Errorf("cross-goroutine corruption: %v %v", w, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestParamsCodecRoundTrip(t *testing.T) {
	f := func(w []float64) bool {
		got, err := DecodeParams(EncodeParams(w))
		if err != nil {
			return false
		}
		if len(got) != len(w) {
			return false
		}
		for i := range w {
			// NaN-safe bitwise comparison via re-encode.
			if got[i] != w[i] && !(w[i] != w[i] && got[i] != got[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	if _, err := DecodeParams([]byte{1, 2}); err == nil {
		t.Error("short blob accepted")
	}
	blob := EncodeParams([]float64{1, 2, 3})
	if _, err := DecodeParams(blob[:len(blob)-4]); err == nil {
		t.Error("truncated blob accepted")
	}
}

func TestKeyFormats(t *testing.T) {
	if CheckpointKey(1, 2) == CheckpointKey(1, 3) {
		t.Error("round not in key")
	}
	if LatestKey(1) == LatestKey(2) {
		t.Error("job not in key")
	}
}

// TestKeysMatchPrintf pins the checkpoint keys byte for byte to the
// printf formats they were first written with — values narrower than
// the pad, exactly as wide, wider, zero and negative — so a store
// written by an older build keeps its keys.
func TestKeysMatchPrintf(t *testing.T) {
	for _, c := range []struct{ job, round int }{
		{0, 0}, {1, 2}, {7, 41}, {59, 999999}, {9999, 100000},
		{12345, 1234567}, {-1, -1}, {-12345, -7}, {3, math.MaxInt64}, {math.MinInt64, 5},
	} {
		if got, want := CheckpointKey(c.job, c.round), fmt.Sprintf("ckpt/job%04d/round%06d", c.job, c.round); got != want {
			t.Errorf("CheckpointKey(%d, %d) = %q, want %q", c.job, c.round, got, want)
		}
		if got, want := LatestKey(c.job), fmt.Sprintf("ckpt/job%04d/latest", c.job); got != want {
			t.Errorf("LatestKey(%d) = %q, want %q", c.job, got, want)
		}
	}
	var key string
	if n := testing.AllocsPerRun(100, func() { key = CheckpointKey(12, 345) }); n > 1 {
		t.Errorf("CheckpointKey allocates %v times, want only its string", n)
	}
	if n := testing.AllocsPerRun(100, func() { key = LatestKey(12) }); n > 1 {
		t.Errorf("LatestKey allocates %v times, want only its string (%q)", n, key)
	}
}
