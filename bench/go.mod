module zmail/bench

go 1.24

require zmail v0.0.0

replace zmail => ../
