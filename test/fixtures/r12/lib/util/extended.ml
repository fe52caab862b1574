include Base

let twice = 2 * shared
