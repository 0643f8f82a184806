package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"hdnh/internal/obs"
)

// fill sets every exported leaf under v to a distinct nonzero value; slices
// get one element and maps one "get" key.
func fill(v reflect.Value, n *int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), n)
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), n)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fill(v.Index(0), n)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), n)
	case reflect.Map:
		e := reflect.New(v.Type().Elem()).Elem()
		fill(e, n)
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(reflect.ValueOf("get"), e)
	case reflect.Uint64:
		*n++
		v.SetUint(uint64(*n))
	case reflect.Int64:
		*n++
		v.SetInt(int64(*n))
	case reflect.Float64:
		*n++
		v.SetFloat(float64(*n) + 0.5)
	}
}

// requireSet fails for every exported leaf under v left at its zero value.
func requireSet(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				requireSet(t, path+"."+f.Name, v.Field(i))
			}
		}
	case reflect.Pointer:
		if v.IsNil() {
			t.Errorf("%s is nil", path)
			return
		}
		requireSet(t, path, v.Elem())
	case reflect.Map, reflect.Slice:
		if v.Len() == 0 {
			t.Errorf("%s is empty", path)
		}
	default:
		if v.IsZero() {
			t.Errorf("%s was not set", path)
		}
	}
}

// TestMetricsDocMirrorsWriteJSON decodes a fully populated /metrics.json into
// metricsDoc: a field whose key the server no longer writes stays zero.
func TestMetricsDocMirrorsWriteJSON(t *testing.T) {
	var s obs.Snapshot
	n := 0
	fill(reflect.ValueOf(&s).Elem(), &n)
	var b bytes.Buffer
	if err := s.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc metricsDoc
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	requireSet(t, "metricsDoc", reflect.ValueOf(doc))
}
