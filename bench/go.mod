module quicsand/bench

go 1.24

require quicsand v0.0.0

replace quicsand => ../
