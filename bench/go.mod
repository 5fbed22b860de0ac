module gridmon/bench

go 1.24

require gridmon v0.0.0

replace gridmon => ../
