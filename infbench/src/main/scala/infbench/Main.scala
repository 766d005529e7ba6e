package infbench

import java.nio.file.{Files, Paths}
import scala.collection.mutable
import com.fasterxml.jackson.databind.json.JsonMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, lit, sum, xxhash64}
import repro.core.{InFine, InFineResult}
import repro.data.{Workload, Workloads}
import repro.fd.{AttrSet => AS, _}
import repro.views._

/** One benchmark workload: views of the paper's Table II over catalogs
  * generated at fixed scale factors.
  */
final case class BenchWorkload(name: String, sfByDb: Map[String, Double], views: Seq[Workload])

object BenchWorkload {
  val all: Seq[BenchWorkload] = Seq(
    BenchWorkload("mimic-scale", Map("MIMIC3" -> 0.05),
      Seq(Workloads.byName("diagnoses_icd ⋈ patients"))),
    BenchWorkload("views-small", Map("MIMIC3" -> 0.002, "PTE" -> 0.02),
      Seq("active ⋈ drug", "Q(patients ⋈ admissions)").map(Workloads.byName)),
  )
  def byName(n: String): BenchWorkload =
    all.find(_.name == n).getOrElse(sys.error(s"unknown workload $n (have ${all.map(_.name).mkString(", ")})"))
}

/** The base tables of one database, copied from their generated and cached
  * form into local checkpoints. The seed decides how rows are spread over
  * partitions, so it fixes their physical order; the generators themselves
  * take only the scale factor. A checkpoint is not an entry of Spark's cache
  * manager, so dropping every cached dataset before a call leaves the base
  * tables in place.
  */
final class BaseTables(generated: Map[String, DataFrame], seed: Long) {
  val tables: Map[String, DataFrame] = generated.map { case (t, df) =>
    val order = xxhash64(df.columns.map(col).toIndexedSeq :+ lit(seed): _*)
    t -> df.repartition(df.sparkSession.sparkContext.defaultParallelism, order).localCheckpoint(true)
  }

  /** Row count and order-independent content hash per table. */
  def fingerprints: Map[String, Map[String, Any]] = tables.map { case (t, df) =>
    val r = df.agg(sum(xxhash64(df.columns.map(col).toIndexedSeq: _*).cast("decimal(38,0)")).cast("string"),
      org.apache.spark.sql.functions.count(lit(1))).head()
    t -> Map("rows" -> r.getLong(1), "xxhash64_sum" -> r.getString(0))
  }
}

/** Output of one timed call. */
final case class CallResult(seconds: Double, fds: Set[FD],
                            counters: Counters, extra: Map[String, Double],
                            infine: Option[InFineResult], error: Option[String])

object Main {

  val Pipelines = IndexedSeq("infine", "tane_sf", "hyfd_sf")
  val SetupRounds = 3
  /** Untimed passes before the timed ones, the same for every workload.
    * HotSpot keeps speeding InFine up for 20 passes and more; after 8 the
    * fall is about 1% per pass, so the number of timed passes that fit in a
    * run hardly moves the median.
    */
  val WarmupPasses = 8

  private val json = JsonMapper.builder().addModule(DefaultScalaModule).build()

  private def arg(args: Array[String], name: String): String = {
    val i = args.indexOf(s"--$name")
    require(i >= 0 && i + 1 < args.length, s"missing --$name")
    args(i + 1)
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0 else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private val t00 = System.nanoTime()
  private def log(msg: String): Unit =
    Console.err.println(f"[infbench ${(System.nanoTime() - t00) / 1e9}%6.1f s] $msg")

  def main(args: Array[String]): Unit = {
    val wl      = BenchWorkload.byName(arg(args, "workload"))
    val seed    = arg(args, "seed").toLong
    val seconds = arg(args, "seconds").toDouble
    val traced  = arg(args, "trace") == "1"
    val outDir  = Paths.get(arg(args, "out"))
    Files.createDirectories(outDir)

    val spark = repro.SparkEnv.session
    spark.sparkContext.setLogLevel("WARN")
    val probe   = new Probe(spark, traced)
    val dbs     = wl.views.map(_.db).distinct

    // ---- set-up: generate, cache and count the base tables, several times.
    def generate(): Map[String, Map[String, DataFrame]] = dbs.map { db =>
      val used = wl.views.filter(_.db == db).flatMap(_.spec.rels.map(_.table)).toSet
      db -> Workloads.catalog(db, spark, wl.sfByDb(db)).collect { case (t, df) if used(t) => t -> df.cache() }
    }.toMap
    def unpersist(g: Map[String, Map[String, DataFrame]]): Unit = g.values.flatMap(_.values).foreach(_.unpersist(true))
    var generated = Map.empty[String, Map[String, DataFrame]]
    val setupS = (1 to SetupRounds).map { _ =>
      unpersist(generated)
      System.gc()
      val t0 = System.nanoTime()
      generated = generate()
      generated.values.flatMap(_.values).foreach(_.count())
      (System.nanoTime() - t0) / 1e9
    }
    // Untimed: order the rows by the seed and keep them as checkpoints.
    val bases = generated.map { case (db, g) => db -> new BaseTables(g, seed) }
    unpersist(generated)

    val settings = Map(
      "spark_master" -> spark.sparkContext.master,
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "default_parallelism" -> spark.sparkContext.defaultParallelism,
      "heap_max_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
      "available_processors" -> Runtime.getRuntime.availableProcessors,
    )
    val inputs = Map(
      "workload" -> wl.name, "seed" -> seed,
      "scale_factors" -> wl.sfByDb,
      "tables" -> bases.map { case (db, b) => db -> b.fingerprints },
    )
    println(json.writeValueAsString(Map("inputs" -> inputs, "settings" -> settings)))

    log(s"set-up done: ${setupS.map(x => f"$x%.2f").mkString(" ")} s")
    val duck = bases.map { case (db, b) => db -> new DuckDb(b.tables) }

    // ---- per-view fixtures: schema, evaluator, DuckDB copy of the view.
    final case class View(w: Workload, schema: ViewSchema, eval: ViewEval, duckView: String)
    val views = wl.views.map { w =>
      val tables = bases(w.db).tables
      val schema = ViewSchema.of(w.spec, t => tables(t).columns.toSeq)
      val eval   = new ViewEval(schema, tables)
      View(w, schema, eval, duck(w.db).materialize(eval.toSql(w.spec)))
    }

    // ---- isolation: nothing a previous call cached survives into the next.
    val persistedBefore = mutable.ArrayBuffer.empty[Int]
    def isolate(): Unit = {
      spark.catalog.clearCache()
      persistedBefore += spark.sparkContext.getPersistentRDDs.size
    }

    def straightforward(v: View, miner: Miner): (Set[FD], Map[String, Double]) = {
      val ids = AS.toSeq(v.schema.idsOf(v.w.spec))
      val t0  = System.nanoTime()
      val df  = v.eval.eval(v.w.spec).cache()
      val rows = df.count()
      val t1  = System.nanoTime()
      val tbl = EncodedTable.fromDataFrame(df.select(ids.map(i => col(s"a$i")): _*), ids)
      val t2  = System.nanoTime()
      val fds = miner.mine(tbl)
      val t3  = System.nanoTime()
      df.unpersist(true)
      (fds, Map("view_s" -> (t1 - t0) / 1e9, "encode_s" -> (t2 - t1) / 1e9,
        "mine_s" -> (t3 - t2) / 1e9, "view_rows" -> rows.toDouble))
    }

    def call(v: View, pipeline: String, parent: Long, timed: Boolean): CallResult = {
      isolate()
      if (timed) System.gc()
      val before = probe.snapshot()
      val startMs = Probe.nowMs
      val t0 = System.nanoTime()
      val out: Either[String, (Set[FD], Map[String, Double], Option[InFineResult])] =
        try Right(pipeline match {
          case "infine" =>
            val r = InFine.run(v.w.spec, bases(v.w.db).tables)
            (r.fds, Map.empty[String, Double], Some(r))
          case "tane_sf" => val (f, x) = straightforward(v, Tane); (f, x, None)
          case "hyfd_sf" => val (f, x) = straightforward(v, HyFD); (f, x, None)
        }) catch { case e: Exception => Left(s"${e.getClass.getSimpleName}: ${e.getMessage}") }
      val secs  = (System.nanoTime() - t0) / 1e9
      val endMs = Probe.nowMs
      val delta = probe.snapshot() - before
      val extra = out.map(_._2).getOrElse(Map.empty) ++
        (if (probe.traced) Map("job_wall_s" -> probe.jobWallMs(startMs, endMs) / 1e3) else Map.empty)
      if (probe.traced) probe.addCallSpan(Span(probe.newId(), parent, s"call.$pipeline", startMs, endMs,
        Map("view" -> v.w.name, "seconds" -> secs, "persisted_rdds_before" -> persistedBefore.last)))
      CallResult(secs, out.map(_._1).getOrElse(Set.empty), delta, extra,
        out.toOption.flatMap(_._3), out.left.toOption)
    }

    // The seed also fixes the order of the three pipelines within a pass, so
    // runs over several seeds show whether one pipeline's leftovers help
    // another (they should not: `isolate` removes them).
    val order = Pipelines.permutations.toIndexedSeq((seed % 6).toInt.abs)

    final case class Pass(metrics: Map[String, Double], attempted: Int, failed: Int, problems: Seq[String])

    /** One call of every pipeline on every view. A timed pass starts each call
      * after a full GC and checks every result; a warm-up pass does neither.
      */
    def pass(timed: Boolean): Pass = {
      val passId  = if (probe.traced) probe.newId() else 0L
      val passT0  = Probe.nowMs
      val acc     = mutable.Map.empty[String, Double].withDefaultValue(0.0)
      var failed  = 0
      val problems = mutable.ArrayBuffer.empty[String]
      views.foreach { v =>
        val byPipe = order.map(p => p -> call(v, p, passId, timed)).toMap
        val inf = byPipe("infine")
        val named = Pipelines.map(p => p -> byPipe(p).fds)
        val disagree = if (!timed || byPipe.values.exists(_.error.nonEmpty)) Nil else Gate.agree(v.schema, named)
        Pipelines.foreach { p =>
          val r = byPipe(p)
          val bad = if (!timed) Nil else r.error.toSeq ++ disagree ++
            (if (r.error.isEmpty) Gate.soundAndMinimal(v.schema, duck(v.w.db), v.duckView, r.fds) else Nil) ++
            r.infine.toSeq.flatMap(Gate.provenance(_, duck(v.w.db), v.eval))
          if (bad.nonEmpty) { failed += 1; problems ++= bad.map(b => s"${v.w.name} / $p: $b") }
          acc(s"${p}_s") += r.seconds
        }
        acc("infine_collected_mb") += inf.counters.resultBytes / 1e6
        if (probe.traced) {
          val c = inf.counters
          inf.infine.foreach { res =>
            Seq("base", "selection", "upstaged", "inferred", "mine")
              .foreach(st => acc(s"stage.${st}_s") += res.stats.seconds(st))
            acc("fds") += res.triples.size
          }
          acc("spark.jobs") += c.jobs
          acc("spark.tasks") += c.tasks
          acc("spark.job_wall_s") += inf.extra.getOrElse("job_wall_s", 0.0)
          acc("spark.task_cpu_s") += c.taskCpuNs / 1e9
          acc("spark.shuffle_write_mb") += c.shuffleWriteBytes / 1e6
          acc("sql.actions") += c.sqlActions
          acc("sql.planning_s") += c.planningMs / 1e3
          acc("caller.cpu_s") += c.callerCpuNs / 1e9
          acc("caller.alloc_mb") += c.callerAllocBytes / 1e6
          acc("jvm.gc_s") += Pipelines.map(p => byPipe(p).counters.gcMs).sum / 1e3
          val sf = Seq(byPipe("tane_sf"), byPipe("hyfd_sf"))
          acc("sf.view_s") += sf.map(_.extra.getOrElse("view_s", 0.0)).sum / 2
          acc("sf.encode_s") += sf.map(_.extra.getOrElse("encode_s", 0.0)).sum / 2
          acc("sf.tane_mine_s") += byPipe("tane_sf").extra.getOrElse("mine_s", 0.0)
          acc("sf.hyfd_mine_s") += byPipe("hyfd_sf").extra.getOrElse("mine_s", 0.0)
          acc("view_rows") += byPipe("tane_sf").extra.getOrElse("view_rows", 0.0)
        }
      }
      if (probe.traced) probe.addCallSpan(Span(passId, 0L, "pass", passT0, Probe.nowMs, Map.empty))
      Pass(acc.toMap, views.size * Pipelines.size, failed, problems.toSeq)
    }

    // ---- warm-up, then timed passes.
    (1 to WarmupPasses).foreach { i =>
      val p = pass(timed = false)
      log(f"warm-up $i: infine ${p.metrics("infine_s")}%.3f s, " +
        f"tane_sf ${p.metrics("tane_sf_s")}%.3f s, hyfd_sf ${p.metrics("hyfd_sf_s")}%.3f s")
    }
    persistedBefore.clear()
    val passes = mutable.ArrayBuffer.empty[Pass]
    val tStart = System.nanoTime()
    while (passes.isEmpty || (System.nanoTime() - tStart) / 1e9 < seconds) {
      passes += pass(timed = true)
      val p = passes.last
      log(f"pass ${passes.size}: infine ${p.metrics("infine_s")}%.3f s, " +
        f"tane_sf ${p.metrics("tane_sf_s")}%.3f s, hyfd_sf ${p.metrics("hyfd_sf_s")}%.3f s, failed ${p.failed}")
      p.problems.take(5).foreach(x => log(s"  $x"))
    }
    duck.values.foreach(_.close())

    def med(k: String): Double = median(passes.map(_.metrics.getOrElse(k, 0.0)).toSeq)
    val endToEnd = Map(
      "infine_s" -> (med("infine_s"), "s"), "tane_sf_s" -> (med("tane_sf_s"), "s"),
      "hyfd_sf_s" -> (med("hyfd_sf_s"), "s"),
      "infine_collected_mb" -> (med("infine_collected_mb"), "MB"),
      "setup_s" -> (median(setupS), "s"))
    val perLayer = Seq(
      "stage.base_s" -> "s", "stage.selection_s" -> "s", "stage.upstaged_s" -> "s",
      "stage.inferred_s" -> "s", "stage.mine_s" -> "s",
      "spark.jobs" -> "count", "spark.tasks" -> "count", "spark.job_wall_s" -> "s",
      "spark.task_cpu_s" -> "s", "spark.shuffle_write_mb" -> "MB",
      "sql.actions" -> "count", "sql.planning_s" -> "s",
      "caller.cpu_s" -> "s", "caller.alloc_mb" -> "MB", "jvm.gc_s" -> "s",
      "sf.view_s" -> "s", "sf.encode_s" -> "s", "sf.tane_mine_s" -> "s", "sf.hyfd_mine_s" -> "s",
      "view_rows" -> "count", "fds" -> "count",
    ).map { case (k, u) => k -> (med(k), u) } :+ ("infine_traced_s" -> (med("infine_s"), "s"))
    val metrics = (if (traced) perLayer.toMap else endToEnd)
      .map { case (k, (v, u)) => k -> Map("value" -> v, "unit" -> u) }

    val attempted = passes.map(_.attempted).sum
    val failed    = passes.map(_.failed).sum
    val result = Map("correct" -> passes.forall(_.problems.isEmpty), "attempted" -> attempted,
      "failed" -> failed, "metrics" -> metrics)

    val runFile = outDir.resolve(s"${wl.name}-seed$seed-trace${if (traced) 1 else 0}.json")
    Files.writeString(runFile, json.writeValueAsString(Map(
      "inputs" -> inputs, "settings" -> settings, "order" -> order,
      "warmup_passes" -> WarmupPasses, "setup_s" -> setupS,
      "persisted_rdds_before_call" -> persistedBefore,
      "passes" -> passes.map(p => Map("metrics" -> p.metrics, "failed" -> p.failed, "problems" -> p.problems)),
      "result" -> result,
    ) ++ (if (traced) Map("spans" -> probe.spans.map(_.toJson)) else Map.empty)))
    Files.writeString(Paths.get(arg(args, "result")), json.writeValueAsString(result))
    // Nothing is left to flush; skipping Spark's orderly shutdown saves
    // seconds per run. run.py removes the scratch directories.
    Console.out.flush(); Console.err.flush()
    Runtime.getRuntime.halt(0)
  }
}
