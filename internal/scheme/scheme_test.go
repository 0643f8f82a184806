package scheme

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"hdnh/internal/kv"
	"hdnh/internal/nvm"
)

type fakeStore struct{ name string }

// testNames hands each registration a name of its own: the registry is
// process-wide, and -count or a -cpu list runs a test more than once.
var testNames atomic.Int64

func testName(prefix string) string { return fmt.Sprintf("%s-%d", prefix, testNames.Add(1)) }

func (f *fakeStore) Name() string        { return f.name }
func (f *fakeStore) NewSession() Session { return nil }
func (f *fakeStore) Count() int64        { return 0 }
func (f *fakeStore) Capacity() int64     { return 0 }
func (f *fakeStore) LoadFactor() float64 { return 0 }
func (f *fakeStore) Close() error        { return nil }

func TestRegisterAndOpen(t *testing.T) {
	name := testName("test-fake")
	Register(name, func(dev *nvm.Device, hint int64) (Store, error) {
		return &fakeStore{name: name}, nil
	})
	dev, err := nvm.New(nvm.DefaultConfig(1024))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(name, dev, 10)
	if err != nil {
		t.Fatal(err)
	}
	if st.Name() != name {
		t.Fatalf("Name = %q", st.Name())
	}
	found := false
	for _, n := range Names() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("Names() = %v missing %s", Names(), name)
	}
}

func TestOpenUnknown(t *testing.T) {
	dev, err := nvm.New(nvm.DefaultConfig(1024))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Open("definitely-not-registered", dev, 10)
	if err == nil {
		t.Fatal("unknown scheme opened")
	}
	if !strings.Contains(err.Error(), "unknown scheme") {
		t.Fatalf("error %q lacks context", err)
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	name := testName("test-dup")
	Register(name, func(dev *nvm.Device, hint int64) (Store, error) { return nil, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(name, func(dev *nvm.Device, hint int64) (Store, error) { return nil, nil })
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
}

func TestSentinelErrorsDistinct(t *testing.T) {
	errs := []error{ErrFull, ErrNotFound, ErrExists}
	for i, a := range errs {
		for j, b := range errs {
			if i != j && errors.Is(a, b) {
				t.Fatalf("sentinels %d and %d alias", i, j)
			}
		}
	}
	var _ kv.Key // keep kv import for the interface types
}
