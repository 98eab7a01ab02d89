package summary

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
)

func key(s string) Key { return Key(sha256.Sum256([]byte(s))) }

func TestStoreGetPut(t *testing.T) {
	s := NewStore()
	if _, ok := s.Get(key("a")); ok {
		t.Fatal("empty store hit")
	}
	s.Put(key("a"), &FuncSummary{Fn: "a"})
	got, ok := s.Get(key("a"))
	if !ok || got.Fn != "a" {
		t.Fatalf("Get after Put = %v, %v", got, ok)
	}
	s.Put(key("a"), &FuncSummary{Fn: "a2"})
	if got, _ := s.Get(key("a")); got == nil || got.Fn != "a2" {
		t.Fatalf("re-put did not replace: %v", got)
	}
}

func TestStoreUnboundedByDefault(t *testing.T) {
	s := NewStore()
	for i := 0; i < 1000; i++ {
		s.Put(key(fmt.Sprintf("k%d", i)), &FuncSummary{})
	}
	for i := 0; i < 1000; i++ {
		if _, ok := s.Get(key(fmt.Sprintf("k%d", i))); !ok {
			t.Fatalf("entry k%d evicted from an unbounded store", i)
		}
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(fmt.Sprintf("%d-%d", g, i%32))
				fn := fmt.Sprintf("f%d-%d", g, i)
				s.Put(k, &FuncSummary{Fn: fn})
				if got, ok := s.Get(k); !ok || got.Fn != fn {
					t.Errorf("goroutine %d lost its own put %s", g, fn)
					return
				}
			}
		}()
	}
	wg.Wait()
	for g := 0; g < 8; g++ {
		for i := 0; i < 32; i++ {
			if _, ok := s.Get(key(fmt.Sprintf("%d-%d", g, i))); !ok {
				t.Errorf("entry %d-%d lost under concurrency", g, i)
			}
		}
	}
}
