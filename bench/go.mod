module ispn/bench

go 1.24

require ispn v0.0.0

replace ispn => ../
