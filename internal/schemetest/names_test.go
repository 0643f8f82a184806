package schemetest_test

import (
	"testing"

	_ "hdnh/internal/core"
	"hdnh/internal/nvm"
	"hdnh/internal/scheme"
)

// TestStoreNameIsRegisteredName opens every registered scheme and checks the
// store reports the name it was opened under: the harness, hdnhycsb,
// hdnhload and hdnhtrace label their runs with Store.Name().
func TestStoreNameIsRegisteredName(t *testing.T) {
	names := scheme.Names()
	if len(names) < 9 {
		t.Fatalf("only %d schemes registered: %v", len(names), names)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			dev, err := nvm.New(nvm.DefaultConfig(1 << 21))
			if err != nil {
				t.Fatal(err)
			}
			st, err := scheme.Open(name, dev, 1000)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if got := st.Name(); got != name {
				t.Fatalf("scheme %q reports Name() %q", name, got)
			}
		})
	}
}
