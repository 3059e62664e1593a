package repro.layph

import scala.collection.mutable
import repro.core.{Adjacency, GraphState, VCAlgo}

/** Tunables of the layered-graph construction. */
final case class LayphConfig(
    lpaRounds: Int = 6,
    /** Community size cap K (the paper scales K with |V|; so do we). */
    maxCommunitySize: Int = 1500,
    minCommunitySize: Int = 3,
    /** Replicate a host into a subgraph once it touches >= this many
      * boundary vertices there (Section IV-A1).
      */
    replicationThreshold: Int = 3,
    useReplication: Boolean = true,
    /** Tests/examples: bypass community detection with a fixed vertex ->
      * community assignment (still subject to Definition 2 selection).
      */
    fixedMembership: Option[Map[Long, Long]] = None,
)

/** A proxy vertex (Section IV-A1): `host` replicated inside subgraph `sg`.
  * `dirIn` proxies collect the host's edges INTO the subgraph (host becomes
  * a single entry); `!dirIn` proxies collect edges OUT to the host (the
  * subgraph keeps a single exit).
  */
final case class Proxy(id: Long, host: Long, sg: Int, dirIn: Boolean)

/** The replication plan plus lookup tables used when (re)wiring edges. */
final case class Replication(
    proxies: Seq[Proxy],
    inProxy: Map[(Long, Int), Long],  // (host, sg) -> proxy id
    outProxy: Map[(Long, Int), Long], // (host, sg) -> proxy id
) {
  val proxyIds: Set[Long] = proxies.map(_.id).toSet
  def isProxy(v: Long): Boolean = proxyIds.contains(v)
}

object Replication {
  val none: Replication = Replication(Nil, Map.empty, Map.empty)
}

/** Entry/exit/internal classification of a subgraph (Definition 1). */
final case class Roles(entries: Set[Long], exits: Set[Long]) {
  lazy val boundary: Set[Long] = entries ++ exits
}

object Layering {

  /** Keeps only communities that are dense subgraphs per Definition 2
    * (`|V_I| * |V_O| < |E_i|`) and large enough; everything else becomes
    * an outlier. `protectedVerts` (algorithm roots) are forced out of any
    * subgraph so that global sources always live on the upper layer.
    * Returns vertex -> dense subgraph id (0-based, dense renumbering).
    */
  def selectDense(
      g: GraphState,
      candidates: Map[Long, Long],
      cfg: LayphConfig,
      protectedVerts: Set[Long],
  ): mutable.LongMap[Int] = {
    val cand = mutable.LongMap.empty[Long]
    candidates.foreach { case (v, c) => if (!protectedVerts.contains(v)) cand(v) = c }

    val nV = mutable.HashMap.empty[Long, Int]   // community -> |V_i|
    val nE = mutable.HashMap.empty[Long, Long]  // community -> |E_i|
    val entries = mutable.HashMap.empty[Long, mutable.Set[Long]]
    val exits   = mutable.HashMap.empty[Long, mutable.Set[Long]]
    cand.foreach { case (_, c) => nV.updateWith(c) { o => Some(o.getOrElse(0) + 1) } }
    g.edges.foreach { e =>
      val cu = cand.get(e.src); val cv = cand.get(e.dst)
      (cu, cv) match {
        case (Some(a), Some(b)) if a == b => nE.updateWith(a) { o => Some(o.getOrElse(0L) + 1) }
        case _ =>
          cv.foreach(b => entries.getOrElseUpdate(b, mutable.Set.empty) += e.dst)
          cu.foreach(a => exits.getOrElseUpdate(a, mutable.Set.empty) += e.src)
      }
    }

    val dense = nV.iterator.collect {
      case (c, v) if v >= cfg.minCommunitySize &&
        entries.get(c).map(_.size.toLong).getOrElse(0L) *
          exits.get(c).map(_.size.toLong).getOrElse(0L) < nE.getOrElse(c, 0L) => c
    }.toSeq.sorted
    val renum = dense.zipWithIndex.toMap

    val memb = mutable.LongMap.empty[Int]
    cand.foreach { case (v, c) => renum.get(c).foreach(i => memb(v) = i) }
    memb
  }

  /** Plans proxy vertices on the raw graph (before weighting): a host h
    * with >= threshold edges into (resp. out of) subgraph i gets an entry
    * (resp. exit) proxy there. Proxy ids are allocated past the max id.
    */
  def planReplication(g: GraphState, memb: mutable.LongMap[Int], cfg: LayphConfig): Replication = {
    if (!cfg.useReplication) return Replication.none
    val inCnt  = mutable.HashMap.empty[(Long, Int), Int]
    val outCnt = mutable.HashMap.empty[(Long, Int), Int]
    g.edges.foreach { e =>
      val mu = memb.get(e.src); val mv = memb.get(e.dst)
      // edge from outside into subgraph mv: candidate entry-side replication of src
      mv.foreach { i => if (!mu.contains(i)) inCnt.updateWith((e.src, i)) { o => Some(o.getOrElse(0) + 1) } }
      // edge from subgraph mu out to dst: candidate exit-side replication of dst
      mu.foreach { i => if (!mv.contains(i)) outCnt.updateWith((e.dst, i)) { o => Some(o.getOrElse(0) + 1) } }
    }
    // proxies live in their own id range so later vertex additions (which
    // allocate fresh ids past the raw max) can never collide with them
    var nextId = g.vertices.maxOption.getOrElse(0L) + 1 + (1L << 40)
    val proxies = Seq.newBuilder[Proxy]
    val inP  = Map.newBuilder[(Long, Int), Long]
    val outP = Map.newBuilder[(Long, Int), Long]
    inCnt.toSeq.sortBy(_._1).foreach { case ((h, i), c) =>
      if (c >= cfg.replicationThreshold) {
        proxies += Proxy(nextId, h, i, dirIn = true); inP += ((h, i) -> nextId); nextId += 1
      }
    }
    outCnt.toSeq.sortBy(_._1).foreach { case ((h, i), c) =>
      if (c >= cfg.replicationThreshold) {
        proxies += Proxy(nextId, h, i, dirIn = false); outP += ((h, i) -> nextId); nextId += 1
      }
    }
    Replication(proxies.result(), inP.result(), outP.result())
  }

  /** Algorithm-weighted adjacency of the *effective* graph: the raw graph
    * with proxy rewiring applied.
    *
    * Weights are the raw graph's `GraphState.weightedRow` (so PageRank's
    * `d/N_u` is preserved under rewiring), then each edge is routed:
    *
    *  - `h -> t` with an entry proxy `p=(h, sg(t))`: becomes `p -> t` at the
    *    original weight, plus a single transparent `h -> p` at the identity
    *    weight `one` (F(m, one) = m).
    *  - `u -> h` (u in sg i) with an exit proxy `p'=(h, i)`: becomes
    *    `u -> p'` at the original weight plus transparent `p' -> h`.
    *
    * Transparency makes the rewiring exact for both semirings, which is
    * what lets the correctness tests compare Layph-with-replication
    * against a batch run on the raw graph.
    */
  def effectiveAdjacency(
      g: GraphState,
      algo: VCAlgo,
      memb: mutable.LongMap[Int],
      repl: Replication,
  ): Adjacency = {
    val b = Adjacency.newBuilder
    val transparent = mutable.Set.empty[(Long, Long)] // emitted identity links

    g.out.keysIterator.foreach { u =>
      val mu = memb.get(u)
      g.weightedRow(u, algo).foreach { case (v, w) =>
        val mv = memb.get(v)
        val viaIn = mv.flatMap { i => if (!mu.contains(i)) repl.inProxy.get((u, i)) else None }
        viaIn match {
          case Some(p) =>
            b.add(p, v, w)
            if (transparent.add((u, p))) b.add(u, p, algo.one)
          case None =>
            val viaOut = mu.flatMap { i => if (!mv.contains(i)) repl.outProxy.get((v, i)) else None }
            viaOut match {
              case Some(p) =>
                b.add(u, p, w)
                if (transparent.add((p, v))) b.add(p, v, algo.one)
              case None => b.add(u, v, w)
            }
        }
      }
    }
    b.result()
  }

  /** Entry/exit classification (Definition 1) per subgraph over an
    * effective adjacency. Proxies classify like any other member.
    */
  def roles(
      adj: Adjacency,
      memb: mutable.LongMap[Int],
      numSubgraphs: Int,
  ): Array[Roles] = {
    val ent = Array.fill(numSubgraphs)(mutable.Set.empty[Long])
    val exi = Array.fill(numSubgraphs)(mutable.Set.empty[Long])
    adj.edges.foreach { case (u, v, _) =>
      val mu = memb.get(u); val mv = memb.get(v)
      if (mu != mv) {
        mv.foreach(i => ent(i) += v)
        mu.foreach(i => exi(i) += u)
      }
    }
    Array.tabulate(numSubgraphs)(i => Roles(ent(i).toSet, exi(i).toSet))
  }
}
