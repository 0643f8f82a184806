package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"hdnh/internal/bigkv"
	"hdnh/internal/nvm"
	"hdnh/internal/obs"
)

// FuzzBatchRequest drives POST /batch with arbitrary bodies. The handler
// must answer 200 or 400 and never panic, and a request it rejects must not
// have run any op: /batch validates the whole request before it executes
// the first one, so a malformed op late in a list cannot leave earlier ops
// applied. Every op the store runs is counted in the metrics registry, so
// "nothing ran" is exact. The collector stays off: its relocations are ops
// too.
//
//	go test ./internal/serve -run '^$' -fuzz FuzzBatchRequest -fuzztime 30s
func FuzzBatchRequest(f *testing.F) {
	put := `{"op":"put","key":"k","value":"` + b64("v") + `"}`
	for _, seed := range []string{
		`{"ops":[` + put + `,{"op":"get","key":"k"},{"op":"delete","key":"k"}]}`,
		`{"ops":[` + put + `,{"op":"frob","key":"k"}]}`,
		`{"ops":[` + put + `,{"op":"put","key":"k"}]}`,
		`{"ops":[` + put + `,{"op":"get","key":""}]}`,
		`{"ops":[{"op":"get","key":"0123456789abcdefX"}]}`,
		`{"ops":[{"op":"put","key":"k","value":"not base64!"}]}`,
		`{"ops":[` + put + `]} {"ops":[]}`,
		`{"ops":[]}`,
		`{"ops":null}`,
		`[1,2]`,
		``,
	} {
		f.Add([]byte(seed))
	}

	dev, err := nvm.New(nvm.DefaultConfig(1 << 21))
	if err != nil {
		f.Fatal(err)
	}
	opts := bigkv.DefaultOptions()
	opts.Table.Metrics = obs.New(obs.Config{})
	opts.DisableAutoGC = true
	st, err := bigkv.Create(dev, opts)
	if err != nil {
		f.Fatal(err)
	}
	srv := New(Options{Store: st})
	f.Cleanup(func() {
		srv.Close()
		st.Close()
	})
	h := srv.Handler()
	opsRun := func() (n uint64) {
		snap := opts.Table.Metrics.Snapshot()
		for _, outs := range snap.Ops {
			for _, c := range outs {
				n += c
			}
		}
		return n
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		ops, items := opsRun(), st.Count()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)))
		switch w.Code {
		case http.StatusOK:
		case http.StatusBadRequest:
			if got := opsRun(); got != ops || st.Count() != items {
				t.Fatalf("rejected request ran %d ops (items %d -> %d): %q", got-ops, items, st.Count(), body)
			}
		default:
			t.Fatalf("status %d for %q: %s", w.Code, body, w.Body.String())
		}
	})
}
