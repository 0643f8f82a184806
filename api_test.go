package hdnh_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"hdnh"
)

func TestPublicFacadeRoundTrip(t *testing.T) {
	dev, err := hdnh.NewDevice(hdnh.DeviceConfig(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	table, err := hdnh.Create(dev, hdnh.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer table.Close()
	s := table.NewSession()
	if err := s.Insert(hdnh.Key("facade"), hdnh.Value("works")); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get(hdnh.Key("facade")); !ok || v.String() != "works" {
		t.Fatalf("Get = (%q, %v)", v.String(), ok)
	}
	if table.Count() != 1 {
		t.Fatalf("Count = %d", table.Count())
	}
}

func TestPublicFacadeReopen(t *testing.T) {
	cfg := hdnh.StrictDeviceConfig(1 << 20)
	dev, err := hdnh.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	table, err := hdnh.Create(dev, hdnh.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := table.NewSession()
	if err := s.Insert(hdnh.Key("persist"), hdnh.Value("me")); err != nil {
		t.Fatal(err)
	}
	if err := table.Close(); err != nil {
		t.Fatal(err)
	}
	dev2, err := hdnh.DeviceFromImage(cfg, dev.PersistedImage())
	if err != nil {
		t.Fatal(err)
	}
	re, err := hdnh.Open(dev2, hdnh.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if v, ok := re.NewSession().Get(hdnh.Key("persist")); !ok || v.String() != "me" {
		t.Fatal("record lost across reopen through the facade")
	}
	if !re.LastRecovery()[0].CleanShutdown {
		t.Fatal("clean shutdown flag lost")
	}
}

func TestOpenOrCreate(t *testing.T) {
	dev, err := hdnh.NewDevice(hdnh.DeviceConfig(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	t1, err := hdnh.OpenOrCreate(dev, hdnh.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := t1.NewSession().Insert(hdnh.Key("x"), hdnh.Value("1")); err != nil {
		t.Fatal(err)
	}
	t1.Close()
	t2, err := hdnh.OpenOrCreate(dev, hdnh.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()
	if _, ok := t2.NewSession().Get(hdnh.Key("x")); !ok {
		t.Fatal("OpenOrCreate did not reopen the existing table")
	}
}

func TestKeyValuePanicOnOversize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized Key did not panic")
		}
	}()
	hdnh.Key("this key is way longer than sixteen bytes")
}

func TestPublicFacadeMetricsAndErrors(t *testing.T) {
	dev, err := hdnh.NewDevice(hdnh.DeviceConfig(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	opts := hdnh.DefaultOptions()
	opts.Metrics = hdnh.NewMetrics(hdnh.MetricsConfig{SampleEvery: 1})
	table, err := hdnh.Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer table.Close()
	s := table.NewSession()
	if err := s.Insert(hdnh.Key("m"), hdnh.Value("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(hdnh.Key("m"), hdnh.Value("2")); !errors.Is(err, hdnh.ErrExists) {
		t.Fatalf("duplicate Insert = %v, want ErrExists", err)
	}
	if _, err := s.Lookup(hdnh.Key("absent")); !errors.Is(err, hdnh.ErrNotFound) {
		t.Fatalf("Lookup absent = %v, want ErrNotFound", err)
	}
	if err := s.Delete(hdnh.Key("absent")); !errors.Is(err, hdnh.ErrNotFound) {
		t.Fatalf("Delete absent = %v, want ErrNotFound", err)
	}
	snap := table.MetricsSnapshot()
	if snap.OpTotal(0) == 0 {
		t.Fatal("metrics snapshot recorded no get/insert activity")
	}
	if snap.Gauges.Items != 1 {
		t.Fatalf("Items gauge = %d, want 1", snap.Gauges.Items)
	}
	var buf bytes.Buffer
	if err := snap.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "hdnh_ops_total") {
		t.Fatal("Prometheus exposition missing hdnh_ops_total")
	}
}
