package main

import (
	"fmt"
	"runtime"
	"syscall"
)

// commonMeta records what every run prints about its environment.
func commonMeta(res *result, o opts) {
	res.meta["workload"] = o.workload
	res.meta["seed"] = fmt.Sprint(o.seed)
	res.meta["seconds"] = fmt.Sprint(o.seconds)
	res.meta["gomaxprocs"] = fmt.Sprint(runtime.GOMAXPROCS(0))
	res.meta["nproc"] = fmt.Sprint(runtime.NumCPU())
	res.meta["go_version"] = runtime.Version()
	res.meta["setups"] = fmt.Sprint(o.setups)
}

// fsMagic names the filesystems a data directory is likely to sit on.
var fsMagic = map[int64]string{
	0xEF53:     "ext2/3/4",
	0x01021994: "tmpfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x2FC12FC1: "zfs",
}

// fsType names the filesystem holding dir. A tmpfs data directory makes
// fsync free, which would hide the durable tier's main cost.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("magic 0x%x", st.Type)
}
