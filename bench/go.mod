module hdnh/bench

go 1.22

require hdnh v0.0.0

replace hdnh => ../
