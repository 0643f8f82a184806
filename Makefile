# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test race bench experiments examples flight-demo fuzz clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./... -count=1

race:
	$(GO) test -race ./... -count=1

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every paper figure/table plus the extensions (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/hdnhbench -all -records 50000 -ops 100000 -mode emulate

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/hotcache
	$(GO) run ./examples/durability
	$(GO) run ./examples/concurrent

clean:
	$(GO) clean ./...

# Emit a Perfetto-loadable flight trace from a mixed churn/resize/GC/recovery
# workload (open flight-demo.json at https://ui.perfetto.dev).
flight-demo:
	$(GO) run ./cmd/hdnhbench -fig flightdemo -records 20000 -ops 40000 -mode model -flight-out flight-demo.json

# Short fuzz passes over the trace reader and the RESP command parser (CI
# runs the same smoke).
fuzz:
	$(GO) test -fuzz=FuzzReader -fuzztime=30s ./internal/trace/
	$(GO) test -fuzz=FuzzParseCommand -fuzztime=30s ./internal/resp/
