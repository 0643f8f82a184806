package hdnh_test

import (
	"fmt"

	"hdnh"
)

// Example shows the minimal end-to-end flow: device, table, session, CRUD.
func Example() {
	dev, err := hdnh.NewDevice(hdnh.DeviceConfig(1 << 20))
	if err != nil {
		panic(err)
	}
	table, err := hdnh.Create(dev, hdnh.DefaultOptions())
	if err != nil {
		panic(err)
	}
	defer table.Close()

	s := table.NewSession()
	if err := s.Insert(hdnh.Key("city"), hdnh.Value("Lemont")); err != nil {
		panic(err)
	}
	v, ok := s.Get(hdnh.Key("city"))
	fmt.Println(v.String(), ok)
	// Output: Lemont true
}

// ExampleOpen shows durability: a table created on a strict-mode device is
// recovered from its persisted image, as after a reboot.
func ExampleOpen() {
	cfg := hdnh.StrictDeviceConfig(1 << 20)
	dev, _ := hdnh.NewDevice(cfg)
	table, _ := hdnh.Create(dev, hdnh.DefaultOptions())
	s := table.NewSession()
	_ = s.Insert(hdnh.Key("k"), hdnh.Value("persisted"))
	_ = table.Close()

	// "Reboot": only the persisted image survives.
	dev2, _ := hdnh.DeviceFromImage(cfg, dev.PersistedImage())
	recovered, _ := hdnh.Open(dev2, hdnh.DefaultOptions())
	defer recovered.Close()

	v, ok := recovered.NewSession().Get(hdnh.Key("k"))
	fmt.Println(v.String(), ok)
	// Output: persisted true
}

// ExampleRouter_Stats shows the occupancy snapshot, one per shard.
func ExampleRouter_Stats() {
	dev, _ := hdnh.NewDevice(hdnh.DeviceConfig(1 << 20))
	table, _ := hdnh.Create(dev, hdnh.DefaultOptions())
	defer table.Close()
	s := table.NewSession()
	_ = s.Insert(hdnh.Key("a"), hdnh.Value("1"))
	_ = s.Insert(hdnh.Key("b"), hdnh.Value("2"))
	fmt.Println(table.Stats()[0].Items)
	// Output: 2
}
