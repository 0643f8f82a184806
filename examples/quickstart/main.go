// Quickstart: create an emulated NVM device, build an HDNH table on it,
// and run the basic operations through the public API.
package main

import (
	"fmt"
	"log"

	"hdnh"
)

func main() {
	// An emulated persistent-memory device: capacity is in 8-byte words, so
	// this is a 32 MB module. DeviceConfig counts NVM traffic; swap in
	// EmulatedDeviceConfig to also pay Optane-like latencies.
	dev, err := hdnh.NewDevice(hdnh.DeviceConfig(1 << 22))
	if err != nil {
		log.Fatal(err)
	}

	// The paper's tuned configuration: 16KB segments, a DRAM hot table with
	// 4-slot buckets and RAFL replacement, synchronous writes.
	table, err := hdnh.Create(dev, hdnh.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	defer table.Close()

	// Sessions are per-goroutine handles; all operations go through one.
	s := table.NewSession()

	if err := s.Insert(hdnh.Key("alice"), hdnh.Value("engineer")); err != nil {
		log.Fatal(err)
	}
	if err := s.Insert(hdnh.Key("bob"), hdnh.Value("designer")); err != nil {
		log.Fatal(err)
	}

	if v, ok := s.Get(hdnh.Key("alice")); ok {
		fmt.Printf("alice     -> %s\n", v)
	}

	if err := s.Update(hdnh.Key("bob"), hdnh.Value("manager")); err != nil {
		log.Fatal(err)
	}
	if v, ok := s.Get(hdnh.Key("bob")); ok {
		fmt.Printf("bob       -> %s\n", v)
	}

	if _, ok := s.Get(hdnh.Key("carol")); !ok {
		// Negative search: the OCF answers this from DRAM fingerprints —
		// check the session stats to see that (almost) no NVM was touched.
		fmt.Println("carol     -> not found (filtered by the OCF)")
	}

	if err := s.Delete(hdnh.Key("alice")); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("records   = %d, load factor = %.4f\n", table.Count(), table.LoadFactor())
	fmt.Printf("NVM usage = %v\n", s.NVMStats())
}
