//! Determinism of the fault layer: the same seed/plan against the same
//! workload must leave a byte-identical post-crash disk image, whatever
//! the cut point, torn-sector count, or stack. This is the property the
//! whole crash-point exploration harness rests on — if it ever breaks,
//! crash points stop being reproducible coordinates.

use proptest::prelude::*;

use modelcheck::gen::name;
use modelcheck::rng::fill;
use modelcheck::stack::{DevKind, FsKind, Obs};
use modelcheck::{McOp, Script, StackSpec};
use vlfs::disksim::{FaultPlan, WriteFault};
use vlfs::fscore::{FileSystem, FsResult};
use vlfs::ufs::Ufs;

/// One op of the script as the file system sees it — the fault layer's
/// question, so no model rides along.
fn apply(fs: &mut Ufs, op: &McOp) -> FsResult<()> {
    match *op {
        McOp::Create { name: n } => fs.create(&name(n)).map(drop),
        McOp::Write { name: n, offset, len, tag, sync } => {
            fs.set_sync_writes(sync);
            let h = fs.open(&name(n))?;
            fs.write(h, offset.into(), &fill(tag, offset.into(), len as usize))
        }
        McOp::Delete { name: n } => fs.delete(&name(n)),
        McOp::Sync => fs.sync(),
        _ => unreachable!("not in the small mixed script"),
    }
}

/// Run the standard script to the crash (or the end) and serialize the
/// surviving media.
fn image_after(spec: StackSpec, plan: &FaultPlan) -> Vec<u8> {
    let mut fs = spec
        .build(Some(plan.clone()), &Obs::default())
        .expect("format under plan");
    // A power cut aborts the script mid-way.
    let _ = fs
        .sync()
        .and_then(|()| Script::SmallMixed.ops().iter().try_for_each(|op| apply(&mut fs, op)));
    let st = spec.crash(fs);
    let mut img = Vec::new();
    st.disk.save_image(&mut img).expect("image serializes");
    img
}

/// Device writes the format itself performs, per stack — cut points are
/// offset past this so `build` always succeeds.
fn format_ops(spec: StackSpec) -> u64 {
    let fs = spec
        .build(Some(FaultPlan::none()), &Obs::default())
        .expect("format");
    spec.crash(fs).write_ops
}

const UFS_REGULAR: StackSpec = StackSpec::harness(FsKind::Ufs, DevKind::Regular);

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Torn power cuts on the raw-disk stacks: identical plan, identical
    /// image, twice over.
    #[test]
    fn torn_cut_images_are_reproducible(cut in 1u64..50, survivors in 0u32..8) {
        for spec in [UFS_REGULAR, StackSpec::harness(FsKind::Lfs, DevKind::Regular)] {
            let plan = FaultPlan::torn_power_cut(format_ops(spec) + cut, survivors);
            prop_assert_eq!(
                image_after(spec, &plan),
                image_after(spec, &plan),
                "{}: same plan, different image",
                spec
            );
        }
    }

    /// Clean cuts at the VLD command boundary are just as reproducible,
    /// under either file system.
    #[test]
    fn vld_cut_images_are_reproducible(cut in 0u64..50) {
        for fs in [FsKind::Ufs, FsKind::Lfs] {
            let spec = StackSpec::harness(fs, DevKind::Vld);
            let plan = FaultPlan::power_cut_after(format_ops(spec) + cut);
            prop_assert_eq!(image_after(spec, &plan), image_after(spec, &plan), "{}", spec);
        }
    }

    /// Corruption faults derive their byte flips from the seed alone:
    /// same seed twice = same image; different seeds diverge (the flip
    /// really happened and really is seed-driven). Power is cut right
    /// after the corrupt write so the corrupted state is what survives —
    /// otherwise the workload's later writes can paper over it.
    #[test]
    fn corruption_is_seed_deterministic(op in 1u64..30, seed in any::<u64>()) {
        let spec = UFS_REGULAR;
        let target = format_ops(spec) + op;
        let cut = WriteFault::PowerCut { survivors: 0 };
        let plan = FaultPlan::corrupt_write(target, seed).with(target + 1, cut);
        let a = image_after(spec, &plan);
        prop_assert_eq!(&a, &image_after(spec, &plan));
        let other = FaultPlan::corrupt_write(target, seed ^ 0x1234_5678).with(target + 1, cut);
        prop_assert_ne!(&a, &image_after(spec, &other));
    }
}
